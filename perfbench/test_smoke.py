"""Self-test of the benchmark, one invocation per run.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of a checkout.  Checks that the one command prints
every named metric with its unit and a passing verdict, that the
tracer restores every wrapped entry point, that traced and untraced
runs produce the same manifest, that layer self times add up to the
traced wall time and put the largest one where README.md predicts,
and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from layers import LAYER_TIMES, METRICS, LayerTracer, restored  # noqa: E402
from run import WORKLOADS, code_identity  # noqa: E402

#: workload -> the layer with the largest self time.
LARGEST = {"fig5": "hid.fit_s", "table1": "cpu.run_s",
           "fig4-ooo": "uarch.run_s"}

pytestmark = pytest.mark.skipif(
    not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")),
    reason="run from the root of a repro checkout",
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(out, declared):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    for metric in declared:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(out["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    out = result(bench("--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "0"))
    check_metrics(out, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    out = result(bench("--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "1"))
    check_metrics(out, SPEC["per_layer"])
    values = {name: m["value"] for name, m in out["metrics"].items()}
    parts = sum(values[name] for name in LAYER_TIMES) \
        + values["trace.other_s"] + values["trace.bookkeeping_s"]
    assert parts == pytest.approx(values["trace.wall_s"], rel=1e-6)
    assert max(LAYER_TIMES, key=values.get) == LARGEST[workload]
    if workload == "table1":
        assert values["hid.fits"] == 0 and values["hid.fit_s"] == 0
    if workload == "fig4-ooo":
        assert values["cpu.quanta"] == 0 and values["uarch.quanta"] > 0
    else:
        assert values["uarch.quanta"] == 0 and values["cpu.quanta"] > 0


def test_held_out_seed_passes_bands():
    out = result(bench("--workload", "table1", "--seed", "11",
                       "--seconds", "1", "--trace", "0"))
    assert out["correct"] is True


def test_every_layer_metric_is_declared():
    assert {m["name"] for m in SPEC["per_layer"]} == set(METRICS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_code_identity_follows_the_source(tmp_path):
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("A = 1\n")
    before = code_identity(str(tmp_path))
    assert code_identity(str(tmp_path)) == before
    module.write_text("A = 2\n")
    assert code_identity(str(tmp_path)) != before


def test_tracer_restores_every_entry_point():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.cli  # noqa: F401
    from repro.kernel.process import Process
    from repro.workloads.base import build_binary

    before = (Process.step_quantum, build_binary)
    tracer = LayerTracer()
    tracer.install()
    try:
        import repro.workloads.base as base

        assert not restored()
        assert base.build_binary is not before[1]
    finally:
        tracer.uninstall()
    assert restored()
    assert (Process.step_quantum, base.build_binary) == before


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
