"""Process-pool plumbing: shared warm pools and batched cell invocation.

Spawning a Python interpreter and importing numpy + ``repro`` costs two
orders of magnitude more than most cells take to run, so the old
pool-per-backend design spent its wall clock on process churn (the
committed ``BENCH_exec.json`` baseline showed ``--jobs 2`` *slower*
than serial).  This module keeps one warm :class:`ProcessPoolExecutor`
per worker count for the life of the driver process: workers import the
experiment modules once (in the spawn initializer, off the critical
path of the first wave) and are reused across waves, plans and
experiments.

The other spawn-era cost was one IPC round-trip per cell.
:func:`invoke_batch` is the worker-side entry point that amortises it:
a batch of cells travels in one pickle, runs back-to-back in the same
worker, and returns one list of ``(key, outcome)`` pairs.  Batching is
pure transport — each cell still runs through
:func:`repro.exec.backends.invoke_cell` with its own derived seed,
fault injector and tracer, so results are byte-identical to serial.
"""

import atexit
import os
import time

#: jobs -> live ProcessPoolExecutor.  Keyed by worker count so a
#: ``--jobs 2`` smoke and a ``--jobs 4`` sweep in one process never
#: fight over pool geometry.
_SHARED = {}


def _preload():
    """Worker initializer: pay the heavy imports once per worker.

    Runs in the spawned worker before it accepts work.  Importing the
    experiment package pulls in numpy, the simulator and the HID
    classifiers — everything a cell body could need — so the first cell
    a worker receives runs as fast as the hundredth.
    """
    import repro.core.experiments  # noqa: F401


def shared_pool(jobs):
    """Return the warm pool for *jobs* workers, creating it on first use."""
    pool = _SHARED.get(jobs)
    if pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # ``spawn`` (not ``fork``): clean interpreters, no inherited
        # locks or numpy state, identical behaviour on every platform.
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_preload,
        )
        _SHARED[jobs] = pool
    return pool


def discard_pool(jobs):
    """Drop the pool for *jobs* (after a worker crash broke it)."""
    pool = _SHARED.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_all(wait=True):
    """Shut down every warm pool *now*; returns how many were reaped.

    The explicit counterpart of the ``atexit`` hook: long-lived drivers
    (test suites, notebook sessions, benchmark harnesses) call this
    between workloads so no spawned worker process outlives its last
    sweep.  Idempotent — a second call finds an empty registry.
    """
    count = 0
    while _SHARED:
        _, pool = _SHARED.popitem()
        pool.shutdown(wait=wait, cancel_futures=True)
        count += 1
    return count


def shutdown_pools():
    """Shut down every warm pool (atexit hook; idempotent)."""
    try:
        shutdown_all(wait=True)
    except Exception:  # pragma: no cover - interpreter teardown
        pass


atexit.register(shutdown_pools)


def _probe(delay_s):
    """Worker-side warmup probe; the sleep keeps one worker from
    draining every probe before its siblings finish spawning."""
    time.sleep(delay_s)
    return os.getpid()


def warmup(jobs, probe_delay_s=0.05):
    """Force all *jobs* workers of the shared pool to exist and report
    ``(elapsed_seconds, distinct_worker_count)``.

    Benchmarks call this to price pool startup separately from
    steady-state cell throughput; the executor itself never needs to —
    workers spin up lazily on the first wave.  Workers finish their
    heavy imports at different times, and on a host with fewer CPUs
    than workers the first ready ones can drain a whole round of
    probes while the rest are still importing — so probing repeats
    until every worker has answered (or a minute has passed).
    """
    started = time.monotonic()
    pool = shared_pool(jobs)
    pids = set()
    while len(pids) < jobs and time.monotonic() - started < 60.0:
        futures = [pool.submit(_probe, probe_delay_s) for _ in range(jobs)]
        pids.update(future.result() for future in futures)
    return time.monotonic() - started, len(pids)


def invoke_batch(batch):
    """Run a batch of cells in this worker; one IPC round-trip.

    *batch* is a list of ``(key, fn, kwargs, faults_kw, trace)`` jobs
    exactly as the runner built them.  Cells run in batch order (which
    is declaration order — the backend partitions contiguously), each
    through :func:`invoke_cell`, so a cell cannot tell whether it
    travelled alone or with company.
    """
    from repro.exec.backends import invoke_cell

    out = []
    for key, fn, kwargs, faults_kw, *rest in batch:
        trace = rest[0] if rest else None
        out.append((key, invoke_cell(fn, kwargs, faults_kw, trace)))
    return out
