"""Plan execution: replay, fan out, absorb failures, merge, memoize.

:func:`execute_plan` is the single entry point every experiment runner
uses.  It replays the cells the cell cache already holds, hands the
rest to a backend wave by wave (a wave = cells whose dependencies are
all satisfied), absorbs recoverable failures into per-cell statuses,
and stores each completed cell in the cache as it lands.  That is also
how a killed sweep resumes: running the same command again against the
same cache replays every completed cell and computes only the rest.

Determinism contract: a plan's results depend only on (experiment,
knobs, root seed).  Each cell runs with a derived seed and a derived
fault injector, every value is round-tripped through JSON (so a fresh
value and a cache-replayed value are indistinguishable), and
statuses/results are emitted in declaration order regardless of the
order cells actually finished in.
"""

import dataclasses
import itertools
import json
import time

from repro.core.reporting import (
    append_metrics_section,
    append_status_section,
    format_table,
)
from repro.core.resilience import (
    CELL_CACHED,
    CELL_FAILED,
    CELL_OK,
    sweep_partial,
)
from repro.errors import FatalError
from repro.exec.backends import SerialBackend
from repro.hid.memo import memo_scope


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


def _cell_kwargs(cell, results):
    """A cell's call kwargs: fixed ones, dependency values, its seed."""
    kwargs = dict(cell.kwargs)
    for kwarg, dep_key in cell.deps.items():
        kwargs[kwarg] = results[dep_key]
    if cell.seed_kw is not None:
        kwargs.setdefault(cell.seed_kw, cell.seed)
    return kwargs


def _cell_digest(cell_cache, plan, cell, kwargs, trace):
    """The cell's cache key, or ``None`` when it cannot be memoized.

    A cell that receives a derived fault injector is keyed by the root
    injector's spec too: its value depends on the faults it was dealt.
    """
    if cell.local:
        return None
    faults = plan.faults if cell.faults_kw is not None else None
    return cell_cache.digest(plan.experiment, cell.key, cell.seed,
                             cell.fn, kwargs, trace, faults=faults)


#: Per-process source of the token each execute_plan call sends with
#: its pool batches (the scope of the workers' sweep memos).
_PLAN_SCOPES = itertools.count()


@dataclasses.dataclass(frozen=True)
class RunContext:
    """How a sweep runs, as opposed to what it computes.

    Built once by the caller (the CLI) and passed through the experiment
    runners unread.  *backend* defaults to the serial reference
    (:func:`repro.exec.backend_for` picks one from ``--jobs``);
    *progress* is a :class:`~repro.exec.progress.SweepProgress`;
    *trace* a :class:`~repro.obs.TraceConfig` and *profile* a
    :class:`~repro.obs.prof.ProfileConfig` arm per-cell tracing and
    self-profiling; *cell_cache* a :class:`~repro.exec.cellcache.
    CellCache` memoizes cell values across runs.
    """

    backend: object = None
    progress: object = None
    trace: object = None
    profile: object = None
    cell_cache: object = None

    @property
    def profiling(self):
        return self.profile is not None and self.profile.active

    @property
    def memo_cache(self):
        """The cell cache the sweep replays from and stores into.

        ``None`` for profiled runs: a memoized value has no profile to
        replay, so they recompute every cell.
        """
        return None if self.profiling else self.cell_cache


@dataclasses.dataclass
class SweepRecord:
    """Everything one :func:`execute_plan` call produced.

    *values* maps cell key -> value (``None`` for a failed or skipped
    cell).  The per-cell maps are in declaration order: *statuses*
    (``{"status": ..., "error": ...}``), *traces* and *metrics* (traced
    runs), *timings* (wall-clock seconds), *profiles* (profiled runs).
    *phases*, *profile_memo* and *fit_memo* are sweep-wide wall-clock
    and memo counts.
    """

    plan: object
    values: dict
    statuses: dict
    traces: dict
    metrics: dict
    timings: dict
    profiles: dict
    phases: dict
    profile_memo: dict
    fit_memo: dict

    @property
    def partial(self):
        return sweep_partial(self.statuses)

    def report(self, text):
        """*text* followed by the sweep's status and metrics sections.

        The status block appears only when a cell failed: ``cached`` is
        unremarkable, since a resumed sweep must render the report an
        uninterrupted one did.
        """
        noteworthy = any(cell.get("status") not in (CELL_OK, CELL_CACHED)
                         for cell in self.statuses.values())
        text = append_status_section(
            text, self.statuses if noteworthy else {}, self.partial
        )
        return append_metrics_section(text, self.metrics)


def _in_plan_order(plan, found):
    return {cell.key: found[cell.key] for cell in plan if cell.key in found}


def execute_plan(plan, context=None):
    """Run every cell of *plan* under *context*; returns a
    :class:`SweepRecord`.

    Each executed cell gets a status: ``cached`` (cell-cache hit),
    ``ok`` or ``failed`` (recoverable error, chain attached).  Cells
    whose dependency failed are skipped silently — their value is
    ``None`` and they get no status, matching the historical
    early-return behaviour of the serial runners.

    A *context* (:class:`RunContext`) with a ``trace`` config runs each
    cell body under its own :class:`~repro.obs.Tracer`; the record's
    ``traces`` / ``metrics`` hold each cell's records and metrics
    snapshot.  Trace records are virtual-timed and cached alongside the
    value, so they are byte-equal whether the cells ran serially, in a
    pool, or were replayed from the cell cache.

    ``timings`` holds wall-clock seconds per executed cell (0.0 for
    cache replays).  Wall clock is *not* part of the determinism
    contract — the run ledger keeps it in the manifest's volatile
    section.

    A ``cell_cache`` memoizes cell values across runs: a cell whose
    content digest is already in the cache is replayed (status
    ``cached``) instead of computed, and each freshly computed value is
    stored as it lands — so re-running a killed sweep resumes it.
    Replayed and computed cells are indistinguishable downstream — same
    round-tripped value, same trace records, same fired fault counts
    folded into ``plan.faults`` — so a warm run compares byte-identical
    to the cold run that populated the cache.  A cell that takes a
    derived fault injector is keyed by the injector's spec, so armed
    and unarmed runs never replay each other.

    A ``profile`` config arms per-cell self-profiling: each cell body
    runs under its own :class:`~repro.obs.prof.Profiler` and
    ``profiles`` holds each cell's snapshot.  Everything but the
    snapshot's ``wall`` section is deterministic across backends.
    Profiled runs bypass the cell cache: a memoized value has no
    profile to replay.

    ``phases`` is a wall-clock breakdown of where ``execute_plan``
    itself spent its time — ``schedule`` (building waves/jobs),
    ``cache_lookup`` (cell-cache digests + lookups), ``compute``
    (summed cell bodies), ``ipc`` (backend round-trip residue;
    approximate under parallelism, where compute overlaps), ``merge``
    (absorbing outcomes, storing, final distribution).  Volatile by
    nature — manifests keep it under ``timing``.

    Every call runs its cells under fresh sweep memos (benign
    profiles and classifier fits, :func:`~repro.hid.memo.memo_scope`),
    dropped when it returns: under the serial backend the whole plan
    shares them, under the pool each worker keeps its own for the
    plan's batches (keyed by a per-call token).  ``profile_memo`` and
    ``fit_memo`` hold their summed ``hits`` / ``misses`` / ``stored``
    counts — volatile too, since they depend on how the backend spread
    the cells.
    """
    context = context or RunContext()
    progress, trace, profile = (context.progress, context.trace,
                                context.profile)
    cell_cache = context.memo_cache
    backend = context.backend or SerialBackend()
    if plan.has_local_cells and backend.concurrent:
        # Local cells close over live shared state (an injected
        # Scenario); they cannot be shipped to a worker.  Fall back to
        # the reference backend rather than silently running a subset.
        backend = SerialBackend()
    results = dict(plan.presets)
    recorded = {}
    cell_traces = {}
    cell_metrics = {}
    cell_elapsed = {}
    cell_profiles = {}
    digests = {}
    tracing = trace is not None
    profiling = context.profiling
    phase_acc = {"schedule": 0.0, "cache_lookup": 0.0, "compute": 0.0,
                 "ipc": 0.0, "merge": 0.0}
    memo_counts = {kind: {"hits": 0, "misses": 0, "stored": 0}
                   for kind in ("profile_memo", "fit_memo")}
    scope = next(_PLAN_SCOPES)
    if progress is not None:
        progress.start(plan.experiment, len(plan))

    def note(key, status, elapsed, snapshot):
        if progress is not None:
            progress.update(key, status, elapsed, metrics=snapshot)

    def absorb_fired(fired):
        if plan.faults is not None and fired:
            plan.faults.absorb(fired)

    with memo_scope():
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
                kwargs = _cell_kwargs(cell, results)
                if cell_cache is not None:
                    lookup0 = time.monotonic()
                    digest = _cell_digest(cell_cache, plan, cell, kwargs,
                                          trace)
                    memo = cell_cache.lookup(digest)
                    phase_acc["cache_lookup"] += (time.monotonic()
                                                  - lookup0)
                    if memo is not None:
                        results[cell.key] = memo["value"]
                        snapshot = None
                        if tracing:
                            cell_traces[cell.key] = memo.get("trace")
                            snapshot = memo.get("metrics")
                            cell_metrics[cell.key] = snapshot
                        absorb_fired(memo.get("fired"))
                        recorded[cell.key] = {"status": CELL_CACHED}
                        cell_elapsed[cell.key] = 0.0
                        note(cell.key, CELL_CACHED, 0.0, snapshot)
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
            wave0 = time.monotonic()
            merge_wave = 0.0
            compute_wave = 0.0
            for key, outcome in backend.run_wave(jobs, scope):
                merge0 = time.monotonic()
                compute_wave += outcome.get("elapsed", 0.0)
                absorb_fired(outcome.get("fired"))
                for kind, counts in memo_counts.items():
                    for name, count in outcome.get(kind, {}).items():
                        counts[name] += count
                snapshot = None
                if "trace" in outcome:
                    # Round-trip like the value: a fresh trace and a
                    # cache-replayed trace must be byte-identical.
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
                    if digests.get(key) is not None:
                        cell_cache.store(
                            digests[key], plan.experiment, key, value,
                            trace=cell_traces.get(key) if tracing else None,
                            metrics=snapshot if tracing else None,
                            fired=outcome.get("fired"),
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

    merge0 = time.monotonic()
    statuses, traces, metrics, timings, profiles = (
        _in_plan_order(plan, found)
        for found in (recorded, cell_traces, cell_metrics, cell_elapsed,
                      cell_profiles)
    )
    phase_acc["merge"] += time.monotonic() - merge0
    if progress is not None:
        progress.phases(phase_acc)
    return SweepRecord(
        plan=plan, values=results, statuses=statuses, traces=traces,
        metrics=metrics, timings=timings, profiles=profiles,
        phases={name: round(seconds, 6)
                for name, seconds in phase_acc.items()},
        **memo_counts,
    )


def describe_plan(plan, context=None):
    """Render the cell grid without executing it (``--list-cells``).

    One row per cell: key, derived seed, dependencies, and whether the
    cell cache already holds its value.  The waves are walked the way
    :func:`execute_plan` walks them: a cell is ``cached`` when its
    digest, over its dependencies' cached values, resolves to a verified
    entry; a cell with a pending dependency is itself pending.
    """
    context = context or RunContext()
    cell_cache = context.memo_cache
    known = dict(plan.presets)
    if cell_cache is not None:
        for wave in plan.waves():
            for cell in wave:
                if any(dep not in known for dep in cell.deps.values()):
                    continue
                memo = cell_cache.lookup(_cell_digest(
                    cell_cache, plan, cell, _cell_kwargs(cell, known),
                    context.trace,
                ))
                if memo is not None:
                    known[cell.key] = memo["value"]
    rows = []
    for cell in plan:
        status = "cached" if cell.key in known else "pending"
        deps = ", ".join(sorted(set(cell.deps.values()))) or "-"
        rows.append([cell.key, f"{cell.seed:#018x}", deps, status])
    cached = sum(1 for row in rows if row[3] == "cached")
    title = (f"{plan.experiment}: {len(rows)} cells "
             f"({cached} cached, {len(rows) - cached} pending), "
             f"root seed {plan.root_seed}")
    return format_table(["cell", "derived seed", "depends on", "status"],
                        rows, title=title)
