"""Content-addressed cell memoization: never compute the same cell twice.

fig5 re-plans its sweep per attempt and CI re-runs the same quick
profiles on every push, so the same (experiment, cell, seed, resolved
kwargs) tuple is computed over and over.  :class:`CellCache` keys a
cell's *result* by a sha256 digest of everything that determines it —
the same canonical-JSON hashing discipline the seed derivation and the
run ledger already use — and stores the value (plus its trace/metrics
when tracing, and its fired fault counts when fault-armed) under a
two-level fan-out directory, one file per cell, atomically as the cell
completes.

The cache is also how a killed sweep resumes: re-running the same
command against the same cache replays every completed cell and
computes only the rest.  It is shared across runs and experiments: any
cell whose digest matches is a hit, whether it was computed by a cold
``repro fig5`` an hour ago or by a CI job's previous step.  Safety
comes from the digest (any knob, dep value, seed, code identity, trace
config or fault spec change produces a different key) plus a stored
*value digest* that is re-verified on every read — a corrupted or
tampered entry is detected and recomputed, never trusted.

A fault-armed cell is keyed by its injector spec: the root injector's
``rates`` and ``max_fires`` join the digest material, and the cell's
seed (already in it) seeds the derived injector, so an unarmed entry is
never a hit for an armed cell.  What is deliberately *not* cached:
local cells (they close over live driver state), profiled runs (a
memoized value has no profile to replay), and cells whose kwargs do not
survive canonical JSON (no stable identity, no cache).
"""

import hashlib
import json
import os

from repro.atomicio import atomic_write_json

#: Schema tag stored in every entry; bump to invalidate the world.
CACHE_FORMAT = "repro-cellcache/2"


def _canonical(obj):
    """Canonical JSON bytes: the hashing discipline used everywhere."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _fn_identity(fn):
    """A cell body's stable name; code moves → digests change → miss."""
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


class CellCache:
    """Content-addressed store of computed cell values.

    Counters (``hits``/``misses``/``puts``/``poisoned``) accumulate
    across every plan executed with this instance; the CLI surfaces
    them on the progress line and in the manifest's volatile timing
    section (wall-clock-adjacent bookkeeping — a warm run and a cold
    run must still compare byte-identical).
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.poisoned = 0

    # -- keying ---------------------------------------------------------

    def digest(self, experiment, key, seed, fn, kwargs, trace=None,
               faults=None):
        """Digest of everything that determines a cell's value.

        Returns ``None`` (uncacheable) when *kwargs* will not
        canonicalise — an injector object, a live scenario — because a
        key that silently dropped a kwarg would alias distinct cells.
        The trace config joins the material because a traced entry
        carries trace records an untraced run has no use for.  *faults*
        (the plan's root :class:`~repro.core.resilience.FaultInjector`,
        passed only for cells that receive a derived injector) joins
        with its rates and caps: the derived injector is a function of
        those plus *seed*.
        """
        material = {
            "format": CACHE_FORMAT,
            "experiment": experiment,
            "key": key,
            "seed": seed,
            "fn": _fn_identity(fn),
            "kwargs": kwargs,
        }
        if trace is not None:
            material["trace"] = {
                "categories": (None if trace.categories is None
                               else sorted(trace.categories)),
                "max_records": trace.max_records,
            }
        if faults is not None:
            material["faults"] = {
                "rates": faults.rates,
                "max_fires": faults.max_fires,
            }
        try:
            return hashlib.sha256(_canonical(material)).hexdigest()
        except (TypeError, ValueError):
            return None

    def _path(self, digest):
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    # -- read/write -----------------------------------------------------

    def lookup(self, digest):
        """Return the stored payload for a verified hit, else ``None``.

        The payload is ``{"value": ...}`` plus ``trace``/``metrics``
        when the cell was traced and ``fired`` when its injector fired.

        The stored payload's sha256 is recomputed and checked against
        the recorded ``value_digest``: a mismatch (bit rot, a truncated
        or hand-edited file, a poisoning attempt) counts as
        ``poisoned``, the entry is treated as a miss, and the caller's
        recompute heals it in place through :meth:`store`'s atomic
        replace.
        """
        if digest is None:
            return None
        path = self._path(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        payload = entry.get("payload")
        expected = entry.get("value_digest")
        if (entry.get("format") != CACHE_FORMAT or expected is None
                or hashlib.sha256(_canonical(payload)).hexdigest() != expected):
            # Deliberately NOT deleted here: two processes can detect
            # the same poisoned entry concurrently, and an unlink in
            # that window can destroy the *healed* entry a faster rival
            # already wrote.  Healing is write-only — the recompute
            # lands through :meth:`store`'s atomic tmp+rename, so
            # however many healers race, the entry converges to one
            # valid (identical, deterministic) value.
            self.poisoned += 1
            return None
        self.hits += 1
        return payload

    def store(self, digest, experiment, key, value,
              trace=None, metrics=None, fired=None):
        """Persist a freshly computed cell value under *digest*.

        *fired* (the cell's derived-injector fire counts) is replayed
        into the root injector on a hit, so a resumed run's fault
        summary matches an uninterrupted run's.

        Atomic (temp + rename), so a killed run never leaves a
        half-written entry — and a half-written entry would fail the
        value-digest check anyway.
        """
        if digest is None:
            return
        payload = {"value": value}
        if trace is not None:
            payload["trace"] = trace
            payload["metrics"] = metrics
        if fired:
            payload["fired"] = fired
        entry = {
            "format": CACHE_FORMAT,
            "experiment": experiment,
            "key": key,
            "payload": payload,
            "value_digest": hashlib.sha256(_canonical(payload)).hexdigest(),
        }
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, entry)
        self.puts += 1

    # -- reporting ------------------------------------------------------

    def stats(self):
        """Counters for the manifest's volatile timing section."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "poisoned": self.poisoned,
        }
