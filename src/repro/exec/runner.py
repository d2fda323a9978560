"""Plan execution: cache, fan out, absorb failures, merge, persist.

:func:`execute_plan` is the single entry point every experiment runner
uses.  It resolves checkpoint-cached cells, hands the rest to a backend
wave by wave (a wave = cells whose dependencies are all satisfied),
absorbs recoverable failures into per-cell statuses exactly like
:func:`repro.core.resilience.run_cell` does, and persists completed
cells — monolithically when serial, as O_EXCL shards when concurrent
(consolidated back into the monolith at the end, so the final artefact
is identical either way).

Determinism contract: a plan's results depend only on (experiment,
knobs, root seed).  Each cell runs with a derived seed and a derived
fault injector, every value is round-tripped through JSON (so a fresh
value and a checkpoint-replayed value are indistinguishable), and
statuses/results are emitted in declaration order regardless of the
order cells actually finished in.
"""

import json
import time

from repro.core.resilience import (
    CELL_CACHED,
    CELL_FAILED,
    CELL_OK,
    CheckpointStore,
)
from repro.core.reporting import format_table
from repro.errors import FatalError
from repro.exec.backends import SerialBackend


class CellExecutionError(FatalError):
    """A cell raised a non-recoverable error; the sweep must not go on.

    The original exception may have been raised in a worker process;
    its type and cause chain survive in the message.
    """

    def __init__(self, key, chain):
        super().__init__(f"cell {key!r} failed fatally: {chain}")
        self.key = key
        self.chain = chain


def _roundtrip(value):
    """Normalise a fresh cell value through JSON.

    A resumed sweep replays values that went to disk and back; a fresh
    sweep must see the identical representation (tuples already lists,
    int keys already strings), or resumed and uninterrupted runs could
    render differently.
    """
    return json.loads(json.dumps(value))


def open_store(checkpoint, experiment, meta, trace=None):
    """Resolve a checkpoint directory into a store (or None).

    The sweep persists to ``<checkpoint>/<experiment>.json``; ``meta``
    must hold every knob that changes the plan's cells, so a stored
    checkpoint with different meta is discarded, never mixed in.  A
    :class:`~repro.obs.TraceConfig` joins the meta: traced checkpoints
    carry trace/metrics envelopes an untraced run has no use for (and
    vice versa), so the two must not resume each other.
    """
    if checkpoint is None:
        return None
    import os

    path = os.path.join(os.fspath(checkpoint), f"{experiment}.json")
    meta = {"experiment": experiment, **meta}
    if trace is not None:
        meta["trace"] = {
            "categories": (None if trace.categories is None
                           else sorted(trace.categories)),
            "max_records": trace.max_records,
        }
    return CheckpointStore(path, meta=meta)


#: Marker key of a checkpoint value that carries its cell's trace.
TRACED_VALUE = "__traced_cell__"


def _wrap_traced(value, records, metrics):
    return {TRACED_VALUE: 1, "value": value,
            "trace": records, "metrics": metrics}


def _unwrap(stored):
    """Split a checkpoint value into (value, trace, metrics).

    Untraced checkpoints store the bare value; traced ones store the
    envelope.  Reading tolerates both, so the envelope never leaks into
    experiment results.
    """
    if isinstance(stored, dict) and stored.get(TRACED_VALUE) == 1:
        return stored["value"], stored.get("trace"), stored.get("metrics")
    return stored, None, None


def execute_plan(plan, store=None, statuses=None, backend=None,
                 progress=None, trace=None, traces=None, metrics=None,
                 timings=None, cell_cache=None, profile=None,
                 profiles=None, phases=None):
    """Run every cell of *plan*; returns ``{cell key: value-or-None}``.

    *statuses* (dict) receives ``key -> {"status": ..., "error": ...}``
    in declaration order: ``cached`` (checkpoint hit), ``ok`` or
    ``failed`` (recoverable error, chain attached).  Cells whose
    dependency failed are skipped silently — their value is ``None`` and
    they get no status, matching the historical early-return behaviour
    of the serial runners.

    *trace* (a :class:`~repro.obs.TraceConfig`) arms per-cell tracing:
    each cell body runs under its own :class:`~repro.obs.Tracer`, and
    the caller-supplied *traces* / *metrics* dicts receive
    ``key -> record list`` / ``key -> metrics snapshot`` in declaration
    order.  Trace records are virtual-timed and checkpointed alongside
    the value, so the filled dicts are byte-equal whether the cells ran
    serially, in a pool, or were replayed from a checkpoint.

    *timings* (dict) receives ``key -> wall-clock seconds`` per executed
    cell (0.0 for checkpoint replays).  Wall clock is *not* part of the
    determinism contract — the run ledger keeps it in the manifest's
    volatile section.

    *cell_cache* (a :class:`~repro.exec.cellcache.CellCache`) memoizes
    cell values across runs: a cell whose content digest is already in
    the cache is replayed (status ``cached``, like a checkpoint hit)
    instead of computed, and freshly computed values are stored for
    the next run.  Replayed and computed cells are indistinguishable
    downstream — same round-tripped value, same checkpoint bytes, same
    trace records — so a warm run compares byte-identical to the cold
    run that populated the cache.  Fault-armed plans bypass the cache
    entirely.

    *profile* (a :class:`~repro.obs.prof.ProfileConfig`) arms per-cell
    self-profiling: each cell body runs under its own
    :class:`~repro.obs.prof.Profiler` and the caller-supplied
    *profiles* dict receives ``key -> snapshot`` in declaration order.
    Everything but the snapshot's ``wall`` section is deterministic
    across backends.  Profiled runs bypass the cell cache (a memoized
    value has no profile to replay) and profiles are not checkpointed.

    *phases* (dict) receives a wall-clock breakdown of where
    ``execute_plan`` itself spent its time — ``schedule`` (building
    waves/jobs), ``cache_lookup`` (cell-cache digests + lookups),
    ``compute`` (summed cell bodies), ``ipc`` (backend round-trip
    residue; approximate under parallelism, where compute overlaps),
    ``merge`` (absorbing outcomes, persisting, final distribution).
    Volatile by nature — manifests keep it under ``timing``.
    """
    backend = backend or SerialBackend()
    if plan.has_local_cells and backend.concurrent:
        # Local cells close over live shared state (an injected
        # Scenario); they cannot be shipped to a worker.  Fall back to
        # the reference backend rather than silently running a subset.
        backend = SerialBackend()
    if statuses is None:
        statuses = {}
    results = dict(plan.presets)
    recorded = {}
    cell_traces = {}
    cell_metrics = {}
    cell_elapsed = {}
    cell_profiles = {}
    digests = {}
    tracing = trace is not None
    profiling = profile is not None and profile.active
    memoizing = (cell_cache is not None and plan.faults is None
                 and not profiling)
    phase_acc = {"schedule": 0.0, "cache_lookup": 0.0, "compute": 0.0,
                 "ipc": 0.0, "merge": 0.0}

    def persist(key, payload):
        if store is None:
            return
        if backend.concurrent:
            store.put_shard(key, payload)
        else:
            store.put(key, payload)

    def note(key, status, elapsed, snapshot):
        if progress is None:
            return
        if tracing:
            # The metrics kwarg is only offered when tracing is on, so
            # three-positional custom progress objects keep working.
            progress.update(key, status, elapsed, metrics=snapshot)
        else:
            progress.update(key, status, elapsed)

    try:
        for wave in plan.waves():
            build0 = time.monotonic()
            cache0 = phase_acc["cache_lookup"]
            jobs = []
            for cell in wave:
                # A failed or skipped dependency (None sentinel) skips
                # this cell too; presets are always satisfied.
                if any(dep not in plan.presets and results.get(dep) is None
                       for dep in cell.deps.values()):
                    results[cell.key] = None
                    continue
                if store is not None and cell.key in store:
                    value, replayed, snapshot = _unwrap(store.get(cell.key))
                    results[cell.key] = value
                    if replayed is not None:
                        cell_traces[cell.key] = replayed
                        cell_metrics[cell.key] = snapshot
                    recorded[cell.key] = {"status": CELL_CACHED}
                    cell_elapsed[cell.key] = 0.0
                    note(cell.key, CELL_CACHED, 0.0, snapshot)
                    continue
                kwargs = dict(cell.kwargs)
                for kwarg, dep_key in cell.deps.items():
                    kwargs[kwarg] = results[dep_key]
                if cell.seed_kw is not None:
                    kwargs.setdefault(cell.seed_kw, cell.seed)
                if memoizing and cell.persist and not cell.local:
                    lookup0 = time.monotonic()
                    digest = cell_cache.digest(
                        plan.experiment, cell.key, cell.seed, cell.fn,
                        kwargs, trace
                    )
                    memo = cell_cache.lookup(digest)
                    phase_acc["cache_lookup"] += (time.monotonic()
                                                  - lookup0)
                    if memo is not None:
                        value, memo_trace, memo_metrics = memo
                        results[cell.key] = value
                        if tracing:
                            cell_traces[cell.key] = memo_trace
                            cell_metrics[cell.key] = memo_metrics
                            persist(cell.key, _wrap_traced(
                                value, memo_trace, memo_metrics
                            ))
                        else:
                            persist(cell.key, value)
                        recorded[cell.key] = {"status": CELL_CACHED}
                        cell_elapsed[cell.key] = 0.0
                        note(cell.key, CELL_CACHED, 0.0,
                             memo_metrics if tracing else None)
                        continue
                    digests[cell.key] = digest
                if cell.faults_kw is not None and plan.faults is not None:
                    kwargs.setdefault(
                        cell.faults_kw, plan.faults.derive(cell.seed)
                    )
                cell_trace = None
                if tracing or profiling:
                    cell_trace = {"config": trace, "key": cell.key,
                                  "seed": cell.seed,
                                  "profile": profile if profiling
                                  else None}
                jobs.append((cell.key, cell.fn, kwargs, cell.faults_kw,
                             cell_trace))

            phase_acc["schedule"] += (
                time.monotonic() - build0
                - (phase_acc["cache_lookup"] - cache0)
            )
            persist_flags = {cell.key: cell.persist for cell in wave}
            wave0 = time.monotonic()
            merge_wave = 0.0
            compute_wave = 0.0
            for key, outcome in backend.run_wave(jobs):
                merge0 = time.monotonic()
                compute_wave += outcome.get("elapsed", 0.0)
                if plan.faults is not None and outcome.get("fired"):
                    plan.faults.absorb(outcome["fired"])
                snapshot = None
                if "trace" in outcome:
                    # Round-trip like the value: a fresh trace and a
                    # checkpoint-replayed trace must be byte-identical.
                    cell_traces[key] = _roundtrip(outcome["trace"])
                    snapshot = _roundtrip(outcome["metrics"])
                    cell_metrics[key] = snapshot
                if "profile" in outcome:
                    # Same round-trip discipline: a serial profile and a
                    # pool-pickled profile must compare byte-identical.
                    cell_profiles[key] = _roundtrip(outcome["profile"])
                if outcome["status"] == "ok":
                    value = _roundtrip(outcome["value"])
                    results[key] = value
                    recorded[key] = {"status": CELL_OK}
                    if persist_flags.get(key, True):
                        if tracing:
                            persist(key, _wrap_traced(
                                value, cell_traces.get(key), snapshot
                            ))
                        else:
                            persist(key, value)
                    if digests.get(key) is not None:
                        cell_cache.store(
                            digests[key], plan.experiment, key, value,
                            trace=cell_traces.get(key) if tracing else None,
                            metrics=snapshot if tracing else None,
                        )
                elif outcome["recoverable"]:
                    results[key] = None
                    recorded[key] = {
                        "status": CELL_FAILED, "error": outcome["chain"],
                    }
                else:
                    raise CellExecutionError(key, outcome["chain"])
                cell_elapsed[key] = outcome.get("elapsed", 0.0)
                note(key, recorded[key]["status"],
                     cell_elapsed[key], snapshot)
                merge_wave += time.monotonic() - merge0
            wave_wall = time.monotonic() - wave0
            phase_acc["merge"] += merge_wave
            residue = wave_wall - merge_wave - compute_wave
            if residue > 0:
                phase_acc["ipc"] += residue
            phase_acc["compute"] += compute_wave
    finally:
        backend.close()
        if store is not None and backend.concurrent:
            store.consolidate()

    merge0 = time.monotonic()
    for cell in plan:
        if cell.key in recorded:
            statuses[cell.key] = recorded[cell.key]
        if traces is not None and cell.key in cell_traces:
            traces[cell.key] = cell_traces[cell.key]
        if metrics is not None and cell.key in cell_metrics:
            metrics[cell.key] = cell_metrics[cell.key]
        if timings is not None and cell.key in cell_elapsed:
            timings[cell.key] = cell_elapsed[cell.key]
        if profiles is not None and cell.key in cell_profiles:
            profiles[cell.key] = cell_profiles[cell.key]
    phase_acc["merge"] += time.monotonic() - merge0
    if phases is not None:
        phases.update(
            {name: round(seconds, 6)
             for name, seconds in phase_acc.items()}
        )
    if progress is not None:
        phases_cb = getattr(progress, "phases", None)
        if phases_cb is not None:
            phases_cb(phase_acc)
    return results


def describe_plan(plan, store=None):
    """Render the cell grid without executing it (``--list-cells``).

    One row per cell: key, derived seed, dependencies, and whether the
    checkpoint already holds its value.
    """
    rows = []
    for cell in plan:
        status = "cached" if (store is not None and cell.key in store) \
            else "pending"
        deps = ", ".join(sorted(set(cell.deps.values()))) or "-"
        rows.append([cell.key, f"{cell.seed:#018x}", deps, status])
    cached = sum(1 for row in rows if row[3] == "cached")
    title = (f"{plan.experiment}: {len(rows)} cells "
             f"({cached} cached, {len(rows) - cached} pending), "
             f"root seed {plan.root_seed}")
    return format_table(["cell", "derived seed", "depends on", "status"],
                        rows, title=title)
