"""Run ledger: durable provenance for every experiment run.

Each CLI experiment run writes a **run manifest** — one JSON document
capturing everything needed to reproduce, diff, and gate the run:

* the resolved knob set (the ``<experiment>_meta`` dict that names
  the run) and its stable hash,
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
the wall-clock fields.  Each manifest lives at
``<ledger>/<run_id>/manifest.json`` and is the only record of its run:
:func:`read_index` lists runs by scanning those files.  Every write
goes through :mod:`repro.atomicio`.
"""

import hashlib
import json
import os

from repro.atomicio import atomic_write_json

#: Manifest format tag; bump on incompatible shape changes.
LEDGER_FORMAT = "repro-ledger/1"

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

    *config* is the resolved knob dict (``<experiment>_meta``),
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
    """Persist one run as ``<ledger>/<run_id>/manifest.json``.

    Returns the manifest path.  Re-recording an existing run id
    replaces its manifest in place.
    """
    run_dir = os.path.join(os.fspath(ledger_dir), manifest["run_id"])
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    atomic_write_json(path, manifest)
    return path


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


#: Manifest fields copied verbatim into a :func:`read_index` entry.
_INDEX_FIELDS = ("run_id", "experiment", "seed", "config_hash", "git_sha",
                 "partial", "headlines")


def read_index(ledger_dir="runs"):
    """One summary entry per recorded run, oldest first.

    Scans ``<ledger>/*/manifest.json``, ordered by manifest mtime with
    ties broken by run id.  Directories without a manifest (the cell
    cache, a ``--trace-out`` dir) and unreadable or foreign manifests
    are skipped; a missing ledger reads as empty.
    """
    ledger_dir = os.fspath(ledger_dir)
    try:
        names = os.listdir(ledger_dir)
    except OSError:
        return []
    found = []
    for name in names:
        relative = os.path.join(name, "manifest.json")
        path = os.path.join(ledger_dir, relative)
        try:
            mtime = os.stat(path).st_mtime
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            continue
        if (not isinstance(manifest, dict)
                or manifest.get("format") != LEDGER_FORMAT):
            continue
        entry = {key: manifest.get(key) for key in _INDEX_FIELDS}
        entry["wall_s"] = (manifest.get("timing") or {}).get("wall_s")
        entry["path"] = relative
        found.append((mtime, entry["run_id"], entry))
    found.sort(key=lambda item: item[:2])
    return [entry for _, _, entry in found]
