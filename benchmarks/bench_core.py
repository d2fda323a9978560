"""Benchmark the simulation core: single-core interpreter throughput.

Times the ``Cpu.run`` dispatch on two MiBench kernels (basicmath:
ALU/branch heavy; sha: load/store heavy) under the superblock engine —
the only untraced engine — and records instructions/second and cache
accesses/second to ``BENCH_core.json`` at the repo root.

Two regression floors gate the ``sb/*`` rows:

* at least :data:`MIN_SPEEDUP` above the committed step()-loop era
  numbers (``pre_change``), and
* at least :data:`SB_MIN_SPEEDUP` above :data:`FAST_COMMITTED` — the
  rows a hand-written interpreter loop (since deleted) committed to
  ``BENCH_core.json`` on the same host immediately before the
  translator landed.  Both constants stay as history: they are the
  bars, not measurements this bench can repeat.

``identical_output`` is not taken on faith: this bench re-runs a
reduced kernel through the superblock engine and the step() reference
and diffs the full architectural state (all 56 PMU events, registers,
exit code) before publishing any number.  The sb verification pass
doubles as the translator warm-up: the source→code cache is hot when
measurement starts, so the ``sb/*`` rows report steady-state
throughput rather than first-compile cost.

The host has one CPU and real scheduler noise, so every gated row is
the best of :data:`REPEATS` fresh runs — min-of-N is the standard
estimator for "what the code can do" under interference.
"""

import time

import pytest

from benchmarks.conftest import publish
from benchmarks.schema import write_bench_json
from repro.cpu import engine_override
from repro.kernel import System
from repro.workloads import get_workload

#: step()-loop throughput on the reference 1-core host, captured before
#: the fast dispatch loop replaced it (see docs/PARALLELISM.md).
PRE_CHANGE = {
    "instructions_per_s": 65_593,
    "cache_accesses_per_s": 172_555,
}

#: The regression bar: the sb/* rows must hold at least this multiple
#: of the pre-change throughput.
MIN_SPEEDUP = 2.0

#: Instructions/s of the (since deleted) hand-written interpreter loop,
#: committed to BENCH_core.json on this host immediately before the
#: superblock engine landed; the sb/* rows are gated against these
#: committed numbers, not a same-run measurement, so a globally slow
#: host cannot flatter the ratio.
FAST_COMMITTED = {
    "basicmath": 543_857,
    "sha": 768_026,
}

#: The superblock bar: sb/* throughput vs the committed fast rows.
SB_MIN_SPEEDUP = 2.0

#: Best-of-N runs per gated row (1-core host, noisy neighbours; the
#: observed spread between a quiet and a contended run exceeds 30%,
#: so the estimator needs several draws to land near the true cost).
REPEATS = 5

KERNELS = (("basicmath", 2000), ("sha", 60))

#: Reduced iteration counts for the engine-vs-step equivalence diff
#: (step() is the slow reference; the diff only needs coverage).
VERIFY_KERNELS = (("basicmath", 20), ("sha", 2))

#: The out-of-order core's interpreter carries Tomasulo bookkeeping per
#: instruction, so it is measured at reduced counts and reported for
#: visibility only — the throughput gates stay on the in-order core.
OOO_KERNELS = (("basicmath", 500), ("sha", 15))


def _spawn(name, iterations, uarch="inorder"):
    system = System(seed=7, uarch=uarch)
    workload = get_workload(name)
    system.install_binary("/bin/bench", workload.build(iterations=iterations))
    return system, system.spawn("/bin/bench")


def _measure(name, iterations, uarch="inorder", repeats=REPEATS):
    best = None
    with engine_override("sb"):
        for _ in range(repeats):
            system, process = _spawn(name, iterations, uarch=uarch)
            started = time.perf_counter()
            system.run()
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[0]:
                best = (elapsed, process.cpu.pmu.read())
    elapsed, counters = best
    return {
        "wall_s": round(elapsed, 3),
        "instructions": counters["instructions"],
        "instructions_per_s": round(counters["instructions"] / elapsed),
        "cache_accesses_per_s": round(
            counters["total_cache_accesses"] / elapsed
        ),
    }


def _snapshot(process):
    cpu = process.cpu
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "exit_code": cpu.state.exit_code,
        "cycles": cpu.cycles,
        "events": cpu.pmu.read(),
        "stdout": bytes(process.stdout),
    }


def _identical_output():
    for name, iterations in VERIFY_KERNELS:
        _, reference = _spawn(name, iterations)
        while not reference.cpu.state.halted:
            reference.cpu.step()
        expected = _snapshot(reference)
        with engine_override("sb"):
            system, run = _spawn(name, iterations)
            system.run()
        if _snapshot(run) != expected:
            return False
    return True


@pytest.fixture(scope="module")
def core_runs():
    assert _identical_output(), "the sb engine diverged from step()"
    runs = {f"sb/{name}": _measure(name, iterations)
            for name, iterations in KERNELS}
    runs.update({
        f"ooo/{name}": _measure(name, iterations, uarch="ooo", repeats=1)
        for name, iterations in OOO_KERNELS
    })
    return runs


def test_core_throughput_baseline(benchmark, core_runs):
    runs = benchmark.pedantic(lambda: core_runs, rounds=1, iterations=1)

    speedups = {
        name: round(
            runs[f"sb/{name}"]["instructions_per_s"]
            / PRE_CHANGE["instructions_per_s"], 2
        )
        for name, _ in KERNELS
    }
    sb_vs_fast_committed = {
        name: round(
            runs[f"sb/{name}"]["instructions_per_s"]
            / FAST_COMMITTED[name], 2
        )
        for name, _ in KERNELS
    }
    ooo_vs_inorder = {
        name: round(
            runs[f"ooo/{name}"]["instructions_per_s"]
            / runs[f"sb/{name}"]["instructions_per_s"], 2
        )
        for name, _ in OOO_KERNELS
    }
    write_bench_json(
        "core",
        knobs={**{f"sb/{name}": iterations
                  for name, iterations in KERNELS},
               **{f"ooo/{name}": iterations
                  for name, iterations in OOO_KERNELS}},
        runs=runs,
        pre_change=PRE_CHANGE,
        speedup_vs_pre_change=speedups,
        fast_committed=FAST_COMMITTED,
        sb_vs_fast_committed=sb_vs_fast_committed,
        ooo_vs_inorder_instr_per_s=ooo_vs_inorder,
        identical_output=True,  # asserted in the core_runs fixture
    )

    lines = [f"core baseline — run() vs pre-change "
             f"{PRE_CHANGE['instructions_per_s']:,} instr/s"]
    for name, run in runs.items():
        if name.startswith("sb/"):
            kernel = name[3:]
            note = (f"({speedups[kernel]:.1f}x; "
                    f"{sb_vs_fast_committed[kernel]:.2f}x of "
                    f"committed fast loop)")
        else:
            note = (f"({ooo_vs_inorder[name.split('/', 1)[1]]:.2f}x "
                    f"of inorder)")
        lines.append(
            f"  {name:14s}: {run['instructions_per_s']:>9,} instr/s, "
            f"{run['cache_accesses_per_s']:>9,} cache acc/s {note}"
        )
    publish("core", "\n".join(lines))

    for name, run in runs.items():
        benchmark.extra_info[f"{name}_instructions_per_s"] = \
            run["instructions_per_s"]

    # Regression gates.  The in-order sb rows must not decay back
    # toward the step()-loop era, and must hold their 2x over the
    # committed fast rows — both bars sit far below the measured
    # ratios so host jitter cannot flake them, while still catching
    # any real regression.  The ooo/* runs are reported but not gated
    # — the Tomasulo interpreter is a different machine.
    for name, _ in KERNELS:
        sb = runs[f"sb/{name}"]["instructions_per_s"]
        assert sb >= MIN_SPEEDUP * PRE_CHANGE["instructions_per_s"], \
            f"sb/{name}"
        assert sb >= SB_MIN_SPEEDUP * FAST_COMMITTED[name], f"sb/{name}"
