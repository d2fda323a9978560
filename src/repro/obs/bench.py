"""The perf-trend ledger: one bench entry point, history, regression.

Five ``BENCH_*.json`` snapshots tell you where the repo *is*; this
module records where it has *been*.  :func:`run_suite` drives the
existing ``benchmarks/bench_*.py`` machinery (their knobs, their
measurement helpers — not a parallel reimplementation) through one
entry point, :func:`append_history` appends the measurement as one
schema-versioned JSONL row to ``benchmarks/history.jsonl`` (append-only
via :func:`repro.atomicio.append_jsonl`, so concurrent CI runs
interleave at line granularity), and :func:`check_regression` turns
the latest row into a verdict against the committed baselines — exit 5
on regression, mirroring ``repro gate``.

The history file is an *observability* artefact, not a determinism
one: rows carry wall-clock throughput, the host's ``cpu_count`` and
the checkout's git SHA precisely so that numbers from different
machines and commits can be told apart when reading the trend.
"""

import datetime
import os
import pathlib
import sys
import time

from repro.atomicio import append_jsonl, read_jsonl_tolerant
from repro.obs.ledger import git_sha

HISTORY_FORMAT = "repro-bench-history/1"

#: Suites the unified runner can drive; ``all`` fans out over them.
SUITES = ("core", "exec", "obs")

#: Keys every history row must carry.
ROW_KEYS = ("format", "ts", "bench", "quick", "git_sha", "cpu_count",
            "knobs", "metrics")

#: Eight-level block ramp used for terminal sparklines.
_SPARK = "▁▂▃▄▅▆▇█"


def repo_root():
    """The checkout root (``src/repro/obs/bench.py`` -> four up)."""
    return pathlib.Path(__file__).resolve().parent.parent.parent.parent


def default_history_path():
    return repo_root() / "benchmarks" / "history.jsonl"


def _ensure_benchmarks_importable():
    """Make the repo-root ``benchmarks`` package importable.

    The bench suites live outside ``src`` (they are dev tooling, not
    shipped code); the CLI may run from any cwd, so the checkout root
    joins ``sys.path`` on demand.
    """
    root = str(repo_root())
    if root not in sys.path:
        sys.path.insert(0, root)


# -- suite drivers ----------------------------------------------------

def _suite_core(quick):
    """Interpreter throughput: instr/s per kernel, both engines."""
    from benchmarks.bench_core import KERNELS, _measure

    kernels = (tuple((name, max(1, iters // 5))
                     for name, iters in KERNELS)
               if quick else tuple(KERNELS))
    knobs = {"kernels": {name: iters for name, iters in kernels},
             "uarch": "inorder"}
    metrics = {}
    for name, iterations in kernels:
        for engine in ("fast", "sb"):
            prefix = name if engine == "fast" else f"sb/{name}"
            measured = _measure(name, iterations, engine=engine)
            metrics[f"{prefix}.instructions_per_s"] = \
                measured["instructions_per_s"]
            metrics[f"{prefix}.cache_accesses_per_s"] = \
                measured["cache_accesses_per_s"]
            metrics[f"{prefix}.wall_s"] = measured["wall_s"]
    return knobs, metrics


def _suite_exec(quick):
    """Sweep throughput: serial cells/s on the reduced fig5 plan."""
    from benchmarks.bench_exec import KNOBS
    from repro.core.experiments import run_fig5
    from repro.core.experiments.fig5 import plan_fig5

    knobs = dict(KNOBS)
    if quick:
        knobs.update(attempts=2, training_benign=40, training_attack=40,
                     attempt_samples=12, attempt_benign=6)
    cells = len(plan_fig5(**knobs))
    started = time.perf_counter()
    run_fig5(jobs=1, **knobs)
    wall = time.perf_counter() - started
    recorded = {key: list(value) if isinstance(value, tuple) else value
                for key, value in knobs.items()}
    return recorded, {
        "serial.cells_per_s": round(cells / wall, 3),
        "serial.wall_s": round(wall, 3),
        "cells": cells,
    }


def _suite_obs(quick):
    """Tracing overhead: filtered-vs-off on the in-order core.

    Minimum-of-rounds, the BENCH_obs estimator; a single quick round is
    noisy by construction, which is why the obs suite is recorded in
    the history but exempt from the regression verdict.
    """
    from benchmarks.bench_obs import _timed

    rounds = 1 if quick else 3
    floors = {}
    for mode in ("off", "filtered"):
        floors[mode] = min(_timed("inorder", mode)[0]
                           for _ in range(rounds))
    overhead = floors["filtered"] / floors["off"] - 1.0
    return {"workload": "basicmath", "uarch": "inorder",
            "rounds": rounds}, {
        "inorder.off_s": round(floors["off"], 4),
        "inorder.filtered_s": round(floors["filtered"], 4),
        "inorder.overhead_filtered_pct": round(100 * overhead, 2),
    }


_DRIVERS = {"core": _suite_core, "exec": _suite_exec, "obs": _suite_obs}


def run_suite(suite, quick=False):
    """Run one bench suite in-process; returns ``(knobs, metrics)``."""
    if suite not in _DRIVERS:
        raise ValueError(
            f"unknown bench suite {suite!r}; choose from "
            f"{', '.join(SUITES)} (or 'all')"
        )
    _ensure_benchmarks_importable()
    return _DRIVERS[suite](quick)


# -- the history ledger -----------------------------------------------

def build_row(bench, knobs, metrics, quick=False, now=None):
    """Assemble one schema-versioned history row."""
    if now is None:
        now = datetime.datetime.now(datetime.timezone.utc)
    return {
        "format": HISTORY_FORMAT,
        "ts": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "bench": bench,
        "quick": bool(quick),
        "git_sha": git_sha(str(repo_root())),
        "cpu_count": os.cpu_count(),
        "knobs": knobs,
        "metrics": metrics,
    }


def validate_row(row):
    """True iff *row* is a well-formed history row (current format)."""
    return (isinstance(row, dict)
            and row.get("format") == HISTORY_FORMAT
            and all(key in row for key in ROW_KEYS)
            and isinstance(row.get("metrics"), dict))


def append_history(path, row):
    """Append one validated row; returns the byte count written."""
    if not validate_row(row):
        raise ValueError(f"malformed bench-history row: {row!r}")
    return append_jsonl(path, row)


def read_history(path, bench=None):
    """All well-formed rows of a history file, oldest first.

    Torn or foreign lines are skipped (see
    :func:`repro.atomicio.read_jsonl_tolerant`); *bench* filters to one
    suite.
    """
    rows = [row for row in read_jsonl_tolerant(path) if validate_row(row)]
    if bench is not None:
        rows = [row for row in rows if row["bench"] == bench]
    return rows


def sparkline(values):
    """Block-character sparkline of a numeric series (min..max ramp)."""
    values = [float(value) for value in values]
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK[0] * len(values)
    span = high - low
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((value - low) / span * len(_SPARK)))]
        for value in values
    )


def render_trend(rows, last=20):
    """Per-metric sparklines over the most recent *last* rows.

    One block per bench present in *rows*; each metric line shows the
    series sparkline, the latest value, and the span of observed
    values.  Mixed-host series are flagged (throughput from different
    ``cpu_count`` boxes is not one curve).
    """
    lines = []
    benches = sorted({row["bench"] for row in rows})
    for bench in benches:
        series = [row for row in rows if row["bench"] == bench][-last:]
        hosts = sorted({row.get("cpu_count") for row in series})
        suffix = ""
        if len(hosts) > 1:
            suffix = f"  [mixed hosts: cpu_count in {hosts}]"
        lines.append(f"{bench}: {len(series)} run(s), latest "
                     f"{series[-1]['ts']} "
                     f"@ {str(series[-1]['git_sha'])[:10]}{suffix}")
        metric_names = sorted(series[-1]["metrics"])
        for name in metric_names:
            values = [row["metrics"][name] for row in series
                      if name in row["metrics"]
                      and isinstance(row["metrics"][name], (int, float))]
            if not values:
                continue
            lines.append(
                f"  {name:<34} {sparkline(values):<{min(last, 20)}} "
                f"latest {values[-1]:,.6g} "
                f"(min {min(values):,.6g}, max {max(values):,.6g})"
            )
    if not lines:
        lines.append("bench history is empty — run `repro bench` first")
    return "\n".join(lines)


# -- the regression verdict -------------------------------------------

def _load_baseline(bench):
    import json

    path = repo_root() / f"BENCH_{bench}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def regression_floors():
    """Metric floors derived from the committed baselines.

    * ``core`` floors are **host-independent**: the BENCH_core contract
      is "≥ MIN_SPEEDUP × the pre-fast-path interpreter", so any box
      that can't clear that bar has genuinely regressed (or is not a
      box we benchmark on).
    * ``exec`` floors are generous fractions of the committed serial
      cells/s — sweep wall time swings with host load, so only a halving
      counts as a regression signal.
    * ``obs`` is exempt: one-round overhead percentages whip around too
      much for a meaningful floor; BENCH_obs's own min-of-9-rounds gate
      remains the enforcement point.
    """
    floors = {}
    _ensure_benchmarks_importable()
    try:
        from benchmarks.bench_core import MIN_SPEEDUP, PRE_CHANGE
    except ImportError:
        MIN_SPEEDUP, PRE_CHANGE = None, None
    if PRE_CHANGE is not None:
        # Instructions/s only — BENCH_core's own gate; cache-access
        # rate varies with kernel shape (sha does few accesses per
        # instruction) and is reported, not floored.
        floors[("core", "instructions_per_s")] = (
            MIN_SPEEDUP * PRE_CHANGE["instructions_per_s"]
        )
    try:
        from benchmarks.bench_core import FAST_COMMITTED, SB_MIN_SPEEDUP
    except ImportError:
        FAST_COMMITTED = None
    if FAST_COMMITTED is not None:
        # The superblock engine's bar, keyed exactly per kernel so the
        # bare-suffix fallback above never mixes the two gates: sb/*
        # must hold SB_MIN_SPEEDUP × the fast-loop rows committed to
        # BENCH_core.json when the translator landed.
        for name, committed in FAST_COMMITTED.items():
            floors[("core", f"sb/{name}.instructions_per_s")] = (
                SB_MIN_SPEEDUP * committed
            )
    baseline = _load_baseline("exec")
    if baseline is not None:
        serial = (baseline.get("runs") or {}).get("1") or {}
        cells_per_s = serial.get("cells_per_s")
        if cells_per_s:
            floors[("exec", "serial.cells_per_s")] = 0.5 * cells_per_s
    return floors


def check_regression(rows, floors=None):
    """The latest row per bench vs the committed floors.

    Returns a list of human-readable failures, **first regressed metric
    first** (suite order, then metric name) — empty means the verdict
    is green.  A bench with history but no floor contributes nothing;
    a floored metric missing from the latest row is itself a failure
    (a vanished metric must not read as a pass).
    """
    if floors is None:
        floors = regression_floors()
    failures = []
    for bench in SUITES:
        series = [row for row in rows if row["bench"] == bench]
        if not series:
            continue
        latest = series[-1]
        bench_floors = sorted(
            (metric, floor) for (floor_bench, metric), floor
            in floors.items() if floor_bench == bench
        )
        for metric, floor in bench_floors:
            observed = latest["metrics"].get(metric)
            if observed is None and "." not in metric:
                # Bare-counter floors (e.g. ``instructions_per_s``)
                # match any per-kernel metric ending in them; dotted
                # floors (``sb/sha.instructions_per_s``) are exact-keyed
                # and must never fall back onto another engine's rows.
                candidates = [
                    value for name, value in latest["metrics"].items()
                    if name.rsplit(".", 1)[-1] == metric
                    and isinstance(value, (int, float))
                ]
                if candidates:
                    observed = min(candidates)
            if observed is None:
                failures.append(
                    f"{bench}: metric {metric!r} missing from the "
                    f"latest history row ({latest['ts']})"
                )
                continue
            if observed < floor:
                failures.append(
                    f"{bench}: {metric} regressed — latest "
                    f"{observed:,.6g} < floor {floor:,.6g} "
                    f"(row {latest['ts']} @ "
                    f"{str(latest['git_sha'])[:10]}, "
                    f"cpu_count {latest['cpu_count']})"
                )
    return failures


def format_metrics(bench, knobs, metrics):
    """One-run summary table for the CLI."""
    from repro.core.reporting import format_table

    rows = [[name, f"{value:,.6g}" if isinstance(value, (int, float))
             else str(value)]
            for name, value in sorted(metrics.items())]
    return format_table(
        ["metric", "value"], rows,
        title=f"bench {bench} — cpu_count {os.cpu_count()}",
    )
