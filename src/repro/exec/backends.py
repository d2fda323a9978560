"""Execution backends: where a plan's cells actually run.

``SerialBackend`` runs cells in declaration order in the driver process
— the zero-dependency fallback, and the reference a parallel run must
match byte-for-byte.  ``ProcessPoolBackend`` fans a wave's cells out
over the warm spawn-based pool in :mod:`repro.exec.pool`, batching
cells per IPC round-trip with a bounded number of in-flight batches;
a crashed worker surfaces as a typed transient
:class:`~repro.errors.WorkerCrashError` (absorbed into a partial report
by the same machinery that absorbs injected faults), never as a hung
pool.

Both backends speak the same outcome protocol, produced by
:func:`invoke_cell`::

    {"status": "ok",  "value": ..., "elapsed": s, "fired": {...}}
    {"status": "err", "chain": "...", "recoverable": bool, ...}

so the runner upstream cannot tell them apart — which is the point.
They are the only two backends: :func:`repro.exec.backend_for` picks
one from ``--jobs`` (1 = serial, N > 1 = the pool with N workers).
"""

import contextlib
import time

from repro.core.resilience import RECOVERABLE, error_chain
from repro.errors import WorkerCrashError
from repro.hid.memo import active_memos
from repro.obs.prof import Profiler, activate_profile
from repro.obs.tracer import Tracer, activate


def invoke_cell(fn, kwargs, faults_kw=None, trace=None):
    """Run one cell body and normalise the outcome (worker entry point).

    Runs in the worker process under ``ProcessPoolBackend`` — the
    reason errors come back as data: a reconstructed exception would
    have to survive pickling, a chain string always does.  The derived
    fault injector's fired counts ride along so the driver can fold
    them into the root injector's telemetry.

    *trace* (``{"config": TraceConfig | None, "key": ..., "seed": ...,
    "profile": ProfileConfig | None}``) activates a per-cell
    :class:`~repro.obs.Tracer` and/or :class:`~repro.obs.prof.Profiler`
    around the body; recorded spans, the metrics snapshot and the
    profile travel back in the outcome — all virtual-timed (the
    profile's wall section aside), so the driver merges identical
    payloads whether the cell ran here or in a pool worker.  A cell
    that used the sweep memos in scope returns their counts too, as
    ``profile_memo`` / ``fit_memo`` (volatile like ``elapsed``: they
    depend on the batching).
    """
    injector = kwargs.get(faults_kw) if faults_kw else None
    memos = active_memos()
    memo_kinds = (() if memos is None else
                  (("profile_memo", memos.profiles),
                   ("fit_memo", memos.fits)))
    memo0 = [memo.counts() for _, memo in memo_kinds]
    tracer = None
    profiler = None
    if trace is not None:
        if trace.get("config") is not None:
            tracer = Tracer(trace["config"])
            tracer.begin("exec.cell", "exec", key=trace["key"],
                         seed=f"{trace['seed']:016x}")
        if trace.get("profile") is not None:
            profiler = Profiler(trace["profile"])
    started = time.monotonic()
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(activate(tracer))
            if profiler is not None:
                stack.enter_context(activate_profile(profiler))
            value = fn(**kwargs)
        outcome = {"status": "ok", "value": value}
    except Exception as exc:
        outcome = {
            "status": "err",
            "chain": error_chain(exc),
            "recoverable": isinstance(exc, RECOVERABLE),
            "type": type(exc).__name__,
        }
    outcome["elapsed"] = time.monotonic() - started
    for (kind, memo), before in zip(memo_kinds, memo0):
        counts = {name: count - before[name]
                  for name, count in memo.counts().items()}
        if any(counts.values()):
            outcome[kind] = counts
    if injector is not None:
        outcome["fired"] = {
            kind: count for kind, count in injector.fired.items() if count
        }
    if tracer is not None:
        tracer.end("exec.cell", "exec", status=outcome["status"])
        tracer.finalize()
        outcome["trace"] = tracer.records
        outcome["metrics"] = tracer.metrics.snapshot()
    if profiler is not None:
        outcome["profile"] = profiler.snapshot()
    return outcome


class SerialBackend:
    """Run every cell in the driver process, in declaration order."""

    #: Only a serial backend can run local cells (they close over live
    #: driver state and cannot be shipped to a worker).
    concurrent = False
    jobs = 1

    def run_wave(self, jobs, scope):
        """Yield ``(key, outcome)`` for each ``(key, fn, kwargs,
        faults_kw[, trace])`` job, in order.  The plan token *scope*
        needs no use here: the caller's memo scope is already active
        in this process."""
        for key, fn, kwargs, faults_kw, *rest in jobs:
            trace = rest[0] if rest else None
            yield key, invoke_cell(fn, kwargs, faults_kw, trace)


class ProcessPoolBackend:
    """Fan cells out over ``jobs`` warm, spawn-safe worker processes.

    Workers come from the module-shared pool in :mod:`repro.exec.pool`:
    they import ``repro`` once and are reused across waves, plans and
    experiments, so back-to-back ``execute_plan`` calls never pay spawn
    cost twice (``repro.exec.pool.shutdown_pools`` reaps them at
    interpreter exit, or explicitly in tests).  A wave's cells
    are partitioned into contiguous batches in declaration order (one
    pickle and one IPC round-trip per batch, not per cell); at most
    ``2 * jobs`` batches are in flight at once, so a thousand-cell wave
    never materialises a thousand pickled payloads.

    A worker that dies mid-batch (segfault, OOM-kill, ``os._exit``)
    breaks the pool: the pool is rebuilt and the batch's cells retried
    as singletons to isolate the crasher — healthy batchmates re-run
    uncharged, the crashing cell is charged up to ``crash_retries``
    attempts before yielding a recoverable-error outcome.
    """

    concurrent = True

    def __init__(self, jobs, crash_retries=2, batch_size=None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.jobs = jobs
        self.crash_retries = crash_retries
        self.batch_size = batch_size

    def _pool(self):
        from repro.exec.pool import shared_pool

        return shared_pool(self.jobs)

    def _discard_pool(self):
        from repro.exec.pool import discard_pool

        discard_pool(self.jobs)

    def _partition(self, jobs):
        """Split a wave into contiguous declaration-order batches.

        Auto sizing targets ``2 * jobs`` batches per wave: enough
        slack for load balancing when cell durations vary, while a
        14-cell ``--jobs 2`` wave still needs only 4 round-trips
        instead of 14.
        """
        size = self.batch_size
        if size is None:
            size = max(1, -(-len(jobs) // (2 * self.jobs)))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]

    def run_wave(self, jobs, scope):
        """Yield ``(key, outcome)`` as batches complete (arrival order).

        The caller must not depend on the order — the runner reorders
        statuses and results into declaration order afterwards.
        *scope* (the plan's token) travels with every batch, so a
        worker keeps its sweep memos across the plan's batches.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.exec.pool import invoke_batch

        jobs = list(jobs)
        if not jobs:
            return
        queue = self._partition(jobs)
        crashes = {}
        in_flight = {}
        window = 2 * self.jobs

        def submit_next():
            while queue and len(in_flight) < window:
                batch = queue.pop(0)
                future = self._pool().submit(invoke_batch, batch, scope)
                in_flight[future] = batch

        submit_next()
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                batch = in_flight.pop(future)
                try:
                    for key, outcome in future.result():
                        yield key, outcome
                except BrokenProcessPool:
                    broken = True
                    if len(batch) > 1:
                        # Any cell in the batch may be the crasher;
                        # retry them one per batch, uncharged, so the
                        # next break names exactly one suspect.
                        for job in reversed(batch):
                            queue.insert(0, [job])
                        continue
                    key = batch[0][0]
                    crashes[key] = crashes.get(key, 0) + 1
                    if crashes[key] > self.crash_retries:
                        chain = error_chain(WorkerCrashError(
                            f"worker process died running cell {key!r} "
                            f"({crashes[key]} attempts)"
                        ))
                        yield key, {
                            "status": "err", "chain": chain,
                            "recoverable": True, "elapsed": 0.0,
                            "type": WorkerCrashError.__name__,
                        }
                    else:
                        queue.insert(0, batch)
            if broken:
                # Every other in-flight batch is poisoned too; retry
                # those cells on a fresh pool without charging them a
                # crash (their worker may have been healthy).
                for future, batch in in_flight.items():
                    queue.insert(0, batch)
                in_flight.clear()
                self._discard_pool()
            submit_next()
