"""Run ledger: durable provenance for every experiment run.

Each CLI experiment run writes a **run manifest** — one JSON document
capturing everything needed to reproduce, diff, and gate the run:

* the resolved knob set (the same ``meta`` dict that keys checkpoint
  identity) and its stable hash,
* the repository's git SHA at run time (best effort, ``None`` outside
  a checkout),
* the sweep plan's cell list with derived seeds and dependencies,
* per-cell statuses (``cached`` normalised to ``ok`` so a resumed run
  and an uninterrupted run produce the same manifest), per-cell metric
  snapshots when tracing was armed,
* the experiment's **headline numbers** (the figures the paper's claims
  live on: per-detector accuracy, evasion minima, IPC overheads) and
  the series behind them,
* digests of the trace sinks, and wall/virtual timing.

Everything except the ``timing`` section is a pure function of
(experiment, knobs, root seed): manifests of a resumed run and an
uninterrupted run are byte-identical once :func:`strip_volatile` drops
the wall-clock fields.  Manifests live under ``<ledger>/<run_id>/`` and
are indexed by ``ledger.jsonl`` at the ledger root; index entries land
first as per-run shards under ``ledger.jsonl.d/`` (merged on read,
consolidated under a lock) so concurrent recorders — parallel CI
shards, several drivers sharing one ledger — never lose each other's
entries to a read-modify-write race.  Every write goes through
:mod:`repro.atomicio`.
"""

import hashlib
import json
import os
import time

from repro.atomicio import atomic_write_json, atomic_write_text

#: Manifest format tag; bump on incompatible shape changes.
LEDGER_FORMAT = "repro-ledger/1"

#: Name of the JSONL index file at the ledger root.
LEDGER_INDEX = "ledger.jsonl"

#: Per-run index shard directory next to the monolithic index.  A
#: rewrite of ``ledger.jsonl`` is a read-modify-write — unsafe when
#: several drivers (parallel CI shards, concurrent experiment runs)
#: record runs into one ledger concurrently.  So every
#: recording first lands as its own shard file (atomic rename, one
#: file per run id, no cross-process contention) and the monolith is a
#: *consolidation* of the shards, exactly the checkpoint-shard
#: discipline: shards are merged on read, folded into the monolith
#: opportunistically under an ``O_EXCL`` lock, and never required for
#: correctness once merged.
LEDGER_SHARDS = "ledger.jsonl.d"

#: Manifest keys that vary run-to-run even for identical configs
#: (``__path__`` is the load-time annotation :func:`load_manifest` adds).
VOLATILE_KEYS = ("timing", "__path__")


def stable_hash(payload):
    """sha256 hex digest of a JSON-serialisable object, key-order free."""
    material = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(material).hexdigest()


def run_id_for(experiment, config):
    """Deterministic run identifier: ``<experiment>-<config hash>``.

    Two runs of the same experiment with the same resolved knobs (seed
    included) are the *same reproduction* and share a run directory —
    re-running refreshes the manifest in place, which is exactly what
    the resume-parity contract needs.
    """
    return f"{experiment}-{stable_hash(config)[:12]}"


def git_sha(root="."):
    """The checkout's HEAD commit, or ``None`` when not in a git repo.

    Reads ``.git`` directly (no subprocess): resolves ``HEAD`` through
    one level of ``ref:`` indirection and falls back to
    ``packed-refs``.
    """
    git_dir = os.path.join(root, ".git")
    head_path = os.path.join(git_dir, "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None
    ref = head.partition(":")[2].strip()
    try:
        with open(os.path.join(git_dir, ref), encoding="utf-8") as handle:
            return handle.read().strip() or None
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line.endswith(ref) and not line.startswith("#"):
                    return line.split()[0]
    except OSError:
        pass
    return None


def file_digest(path):
    """sha256 hex digest of one file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _normalise_status(entry):
    """Cached cells replay a previous run's value; for provenance they
    are completed cells, so a resumed manifest equals an uninterrupted
    one."""
    status = entry.get("status")
    if status == "cached":
        status = "ok"
    out = {"status": status}
    if entry.get("error"):
        out["error"] = entry["error"]
    return out


def _result_section(result, method):
    fn = getattr(result, method, None)
    if fn is None:
        return {}
    try:
        return fn()
    except (ValueError, ZeroDivisionError, KeyError):
        # A heavily-degraded partial result may not support every
        # headline; the manifest records what survived.
        return {}


def build_manifest(experiment, config, result, plan=None, statuses=None,
                   trace_files=None, trace_root=None, timing=None,
                   repo_root=".", profile=None):
    """Assemble one run's manifest dict (see the module docstring).

    *config* is the resolved knob dict (the checkpoint ``meta``),
    *plan* the :class:`~repro.exec.SweepPlan` that was executed,
    *statuses* the cell-status dict :func:`~repro.exec.execute_plan`
    filled, *trace_files* an optional ``{label: path}`` of written
    sinks, *timing* an optional dict of wall-clock fields (kept in the
    volatile section).  Sink paths under *trace_root* (normally the
    run's ledger directory) are recorded relative to it, so manifests
    do not depend on where the ledger lives on disk.

    *profile* is a merged self-profiler snapshot
    (:func:`repro.obs.prof.merge_profiles`); only its deterministic
    sections are stored — the wall-clock part belongs in *timing* —
    so a profiled manifest still compares byte-identical across
    backends.
    """
    statuses = statuses if statuses is not None else getattr(
        result, "cell_status", {}
    )
    cells = []
    if plan is not None:
        for cell in plan:
            entry = {"key": cell.key, "seed": f"{cell.seed:#018x}",
                     "deps": sorted(set(cell.deps.values()))}
            recorded = statuses.get(cell.key)
            entry.update(_normalise_status(recorded) if recorded
                         else {"status": "skipped"})
            cells.append(entry)
    else:
        for key in sorted(statuses):
            cells.append({"key": key, "seed": None, "deps": [],
                          **_normalise_status(statuses[key])})

    traces = None
    if trace_files:
        traces = {}
        for label, path in sorted(trace_files.items()):
            recorded = os.fspath(path)
            if trace_root is not None:
                relative = os.path.relpath(recorded,
                                           os.fspath(trace_root))
                if not relative.startswith(".."):
                    recorded = relative
            traces[label] = {"path": recorded,
                             "sha256": file_digest(path)}

    manifest = {
        "format": LEDGER_FORMAT,
        "run_id": run_id_for(experiment, config),
        "experiment": experiment,
        "seed": config.get("seed"),
        "config": config,
        "config_hash": stable_hash(config),
        "git_sha": git_sha(repo_root),
        "partial": bool(getattr(result, "partial", False)),
        "cells": cells,
        "metrics": getattr(result, "cell_metrics", None) or {},
        "headlines": _result_section(result, "headlines"),
        "series": _result_section(result, "series"),
        "traces": traces,
        "timing": dict(timing or {}),
    }
    if profile is not None:
        from repro.obs.prof import strip_profile_volatile

        manifest["profile"] = strip_profile_volatile(profile)
    return manifest


def strip_volatile(manifest):
    """The manifest minus run-to-run wall-clock fields.

    This is the identity ``repro compare`` diffs and the
    resume-parity acceptance test hashes.
    """
    return {key: value for key, value in manifest.items()
            if key not in VOLATILE_KEYS}


def manifest_bytes(manifest):
    """Canonical serialisation of the non-volatile manifest."""
    return (json.dumps(strip_volatile(manifest), sort_keys=True,
                       indent=1) + "\n").encode("utf-8")


def write_manifest(ledger_dir, manifest):
    """Persist one run: per-run directory + ledger index entry.

    Returns the manifest path.  The index entry is first written as a
    per-run **shard** under ``ledger.jsonl.d/`` (one atomic rename, no
    contention between concurrent recorders), then opportunistically
    consolidated into ``ledger.jsonl`` under an ``O_EXCL`` lock — a
    writer that loses the lock race just leaves its shard behind, and
    :func:`read_index` merges shards on read, so no recording is ever
    lost to a concurrent rewrite.  Re-recording an existing run id
    replaces its entry rather than appending a duplicate.
    """
    ledger_dir = os.fspath(ledger_dir)
    run_dir = os.path.join(ledger_dir, manifest["run_id"])
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    atomic_write_json(path, manifest)

    entry = {
        "run_id": manifest["run_id"],
        "experiment": manifest["experiment"],
        "seed": manifest["seed"],
        "config_hash": manifest["config_hash"],
        "git_sha": manifest["git_sha"],
        "partial": manifest["partial"],
        "headlines": manifest["headlines"],
        "wall_s": manifest.get("timing", {}).get("wall_s"),
        "path": os.path.relpath(path, ledger_dir),
    }
    shard_dir = os.path.join(ledger_dir, LEDGER_SHARDS)
    os.makedirs(shard_dir, exist_ok=True)
    atomic_write_json(os.path.join(shard_dir, f"{entry['run_id']}.json"),
                      entry)
    consolidate_index(ledger_dir)
    return path


#: A consolidation lock older than this is presumed orphaned by a
#: killed process and is broken.
_LOCK_STALE_S = 30.0


def _read_shards(ledger_dir):
    """Index shards oldest-recorded first: ``[(shard path, entry)]``."""
    shard_dir = os.path.join(os.fspath(ledger_dir), LEDGER_SHARDS)
    try:
        names = os.listdir(shard_dir)
    except OSError:
        return []
    shards = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(shard_dir, name)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            mtime = os.stat(path).st_mtime
        except (OSError, ValueError):
            continue
        shards.append((mtime, path, entry))
    shards.sort(key=lambda item: (item[0], item[2].get("run_id") or ""))
    return [(path, entry) for _, path, entry in shards]


def _read_monolith(index_path):
    entries = []
    try:
        with open(index_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return entries
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            continue
    return entries


def _merge_index(monolith, shard_entries):
    """Monolith entries + shard entries, deduplicated by run id.

    A shard supersedes the monolith's entry for the same run (it is
    newer by construction); order is monolith order with superseded
    entries replaced in place, then genuinely new shard entries,
    oldest-recorded first.
    """
    by_id = {entry.get("run_id"): entry for entry in shard_entries}
    merged = []
    seen = set()
    for entry in monolith:
        run_id = entry.get("run_id")
        if run_id in seen:
            continue
        seen.add(run_id)
        merged.append(by_id.pop(run_id, entry))
    for entry in shard_entries:
        run_id = entry.get("run_id")
        if run_id in by_id:
            merged.append(by_id.pop(run_id))
    return merged


def consolidate_index(ledger_dir):
    """Fold index shards into ``ledger.jsonl`` (best effort).

    Guarded by an ``O_EXCL`` lock file so exactly one consolidator
    rewrites the monolith at a time; a caller that loses the race
    returns ``False`` and loses nothing — its shard stays on disk and
    every reader merges shards anyway.  Only the shards actually
    folded in are deleted, so a shard written mid-consolidation
    survives for the next pass.
    """
    ledger_dir = os.fspath(ledger_dir)
    index_path = os.path.join(ledger_dir, LEDGER_INDEX)
    lock_path = index_path + ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            stale = (os.stat(lock_path).st_mtime
                     < time.time() - _LOCK_STALE_S)
        except OSError:
            return False
        if not stale:
            return False
        try:
            os.unlink(lock_path)
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return False
    try:
        shards = _read_shards(ledger_dir)
        if shards:
            merged = _merge_index(_read_monolith(index_path),
                                  [entry for _, entry in shards])
            atomic_write_text(index_path, "\n".join(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
                for entry in merged
            ) + "\n")
            for shard_path, _ in shards:
                try:
                    os.unlink(shard_path)
                except OSError:
                    pass
        return True
    finally:
        os.close(fd)
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def load_manifest(ref, ledger_dir="runs"):
    """Resolve *ref* into a manifest dict.

    *ref* may be a manifest file path, a run directory containing
    ``manifest.json``, or a bare run id looked up under *ledger_dir*.
    Raises :class:`OSError` when nothing resolves and
    :class:`ValueError` on malformed content.
    """
    candidates = [
        ref,
        os.path.join(ref, "manifest.json"),
        os.path.join(ledger_dir, ref, "manifest.json"),
    ]
    path = next((c for c in candidates if os.path.isfile(c)), None)
    if path is None:
        raise OSError(f"no run manifest at {ref!r} "
                      f"(tried {', '.join(candidates)})")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != LEDGER_FORMAT:
        raise ValueError(
            f"{path}: unknown manifest format {manifest.get('format')!r}"
        )
    manifest["__path__"] = path
    return manifest


def read_index(ledger_dir="runs"):
    """All ledger index entries, oldest first (empty when no ledger).

    Merges the monolithic ``ledger.jsonl`` with any unconsolidated
    shards under ``ledger.jsonl.d/`` — a run recorded by a concurrent
    writer that lost the consolidation race is still visible here.
    """
    ledger_dir = os.fspath(ledger_dir)
    index_path = os.path.join(ledger_dir, LEDGER_INDEX)
    return _merge_index(
        _read_monolith(index_path),
        [entry for _, entry in _read_shards(ledger_dir)],
    )
