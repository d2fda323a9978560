"""Benchmark the exec subsystem: serial vs warm-pool sweep wall-clock.

Times a reduced Figure-5 sweep (the widest plan: training → 2×attempts
+ search cells) at ``jobs=1`` against the warm worker pool at
``jobs=2`` and ``jobs=4``, asserts the parallel reports are
byte-identical to the serial reference, and records the baseline to
``BENCH_exec.json`` at the repo root.

Honesty rules for the recorded numbers:

* **Warmup is priced separately.**  Spawning workers and importing
  numpy + the simulator costs seconds; the steady state is what sweeps
  actually experience (pools persist across plans for the driver's
  lifetime).  Each parallel run records ``warmup_s`` (pool spin-up,
  forced via :func:`repro.exec.warmup`) and ``wall_s`` (post-warmup
  compute) side by side, and the baseline carries speedups both
  including and excluding warmup so neither story can hide the other.
* **Speedups are relative to the host's CPU count**, which is recorded.
  ``speedups_meaningful`` maps each parallel ``jobs`` value to whether
  the host had that many CPUs, so a 2-CPU host's ``jobs=2`` row counts
  even though its ``jobs=4`` row only measures oversubscription.  A
  1-core CI runner honestly reports ~1x or below; each scaling
  assertion only bites once the host has the CPUs it needs.  The
  determinism assertions bite everywhere.
"""

import os
import sys
import time

import pytest

from benchmarks.conftest import publish
from benchmarks.schema import write_bench_json
from repro.core.experiments import run_fig5
from repro.core.experiments.fig5 import plan_fig5
from repro.exec import RunContext, backend_for, warmup

#: Reduced fig5: full cell topology, ~quarter-scale sampling.
KNOBS = dict(
    seed=42, attempts=6, detector_names=("lr", "nn"),
    training_benign=120, training_attack=120,
    attempt_samples=30, attempt_benign=10,
)

JOB_COUNTS = (1, 2, 4)

#: Resolved once: every scaling gate below is conditional on this.  A
#: single-core host measures scheduling overhead, not parallelism, so
#: no ``--jobs N`` speedup assertion may bite there (the determinism
#: assertions still do).
CPU_COUNT = os.cpu_count()


def _timed_run(jobs):
    started = time.perf_counter()
    result = run_fig5(**KNOBS,
                      context=RunContext(backend=backend_for(jobs)))
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def sweep_timings():
    reports, timings, warmups = {}, {}, {}
    for jobs in JOB_COUNTS:
        if jobs > 1:
            # Pools are keyed by worker count, so this prices a cold
            # spin-up for each jobs value even though pools persist.
            warmups[jobs], workers = warmup(jobs)
            assert workers == jobs
        else:
            warmups[jobs] = 0.0
        result, elapsed = _timed_run(jobs)
        reports[jobs] = result.format()
        timings[jobs] = elapsed
    return reports, timings, warmups


def test_exec_parallel_baseline(benchmark, sweep_timings):
    cells = len(plan_fig5(**KNOBS))
    reports, timings, warmups = benchmark.pedantic(
        lambda: sweep_timings, rounds=1, iterations=1
    )

    # Determinism is the contract; speed is the baseline being recorded.
    for jobs in JOB_COUNTS[1:]:
        assert reports[jobs] == reports[1], f"jobs={jobs} diverged"

    cpu_count = CPU_COUNT
    oversubscribed = [jobs for jobs in JOB_COUNTS if jobs > cpu_count]
    if oversubscribed:
        # Say it out loud, not just in a JSON field: on an undersized
        # box the jobs>cpu_count "speedups" measure scheduling overhead,
        # not parallelism, and must not be read as a regression (or an
        # improvement) against numbers from real parallel hardware.
        print(
            f"bench_exec: WARNING: host has {cpu_count} CPU(s); the "
            f"jobs={','.join(map(str, oversubscribed))} speedups are "
            "NOT parallel-scaling evidence — compare cells_per_s "
            "across hosts only at matching cpu_count",
            file=sys.stderr,
        )

    write_bench_json(
        "exec",
        knobs={k: list(v) if isinstance(v, tuple) else v
               for k, v in KNOBS.items()},
        runs={
            str(jobs): {
                "warmup_s": round(warmups[jobs], 3),
                "wall_s": round(timings[jobs], 3),
                "cells_per_s": round(cells / timings[jobs], 3),
            }
            for jobs in JOB_COUNTS
        },
        experiment="fig5-reduced",
        cells=cells,
        speedup_vs_serial={
            str(jobs): round(timings[1] / timings[jobs], 3)
            for jobs in JOB_COUNTS[1:]
        },
        speedup_vs_serial_incl_warmup={
            str(jobs): round(
                timings[1] / (warmups[jobs] + timings[jobs]), 3
            )
            for jobs in JOB_COUNTS[1:]
        },
        identical_output=True,
        # Per jobs value: true only when the host had at least that
        # many CPUs — the reader's one-glance honesty flag.
        speedups_meaningful={
            str(jobs): jobs <= cpu_count for jobs in JOB_COUNTS[1:]
        },
    )

    lines = [f"exec baseline — reduced fig5, {cells} cells, "
             f"{os.cpu_count()} CPU(s)"]
    for jobs in JOB_COUNTS:
        speedup = timings[1] / timings[jobs]
        lines.append(
            f"  jobs={jobs}: warmup {warmups[jobs]:5.2f}s + "
            f"compute {timings[jobs]:6.2f}s "
            f"({cells / timings[jobs]:.2f} cells/s, {speedup:.2f}x "
            f"steady-state)"
        )
    publish("exec", "\n".join(lines))

    benchmark.extra_info["cpu_count"] = os.cpu_count()
    for jobs in JOB_COUNTS[1:]:
        benchmark.extra_info[f"speedup_jobs{jobs}"] = round(
            timings[1] / timings[jobs], 3
        )
        benchmark.extra_info[f"warmup_jobs{jobs}_s"] = round(
            warmups[jobs], 3
        )
    # Scaling gates, strictly conditional on real parallel hardware:
    # any speedup at all from the second worker once there are two
    # cores, and the original >1.3x bar at jobs=4 once there are four.
    # On a 1-CPU host neither fires — the honest (sub-1x) baseline is
    # the deliverable there, with every speedups_meaningful entry false.
    if CPU_COUNT > 1:
        assert timings[1] / timings[2] > 1.05, (
            f"jobs=2 gained nothing on a {CPU_COUNT}-CPU host"
        )
    if CPU_COUNT >= 4:
        assert timings[1] / timings[4] > 1.3
