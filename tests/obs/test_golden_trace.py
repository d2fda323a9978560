"""Golden-trace determinism: serial == pool == interrupted-then-resumed.

The acceptance property of the observability layer: because records are
stamped with virtual time only, the trace of a sweep is a pure function
of (experiment, knobs, root seed) — the backend, the parallel width,
and cell-cache replay must not leak into the bytes.
"""

import json
from pathlib import Path

from repro.exec import (
    CellCache,
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    SweepPlan,
    execute_plan,
)
from repro.obs import TraceConfig, chrome_trace, trace_jsonl

from tests.obs import cells

CFG = TraceConfig()
SEED = 7


def _plan(keys=("attack", "cpu")):
    plan = SweepPlan("golden", SEED)
    if "attack" in keys:
        plan.add("attack", cells.spectre_cell, kwargs=dict(samples=2),
                 seed_kw="cell_seed")
    if "cpu" in keys:
        plan.add("cpu", cells.cpu_cell, kwargs=dict(iterations=15),
                 seed_kw="cell_seed")
    return plan


def _run(backend=None, cell_cache=None, keys=("attack", "cpu")):
    sweep = execute_plan(_plan(keys), RunContext(
        backend=backend, trace=CFG, cell_cache=cell_cache))
    return sweep.values, sweep.traces, sweep.metrics


def _entries(cache):
    """Every stored cache entry, parsed."""
    return [json.loads(path.read_text())
            for path in sorted(Path(cache.root).rglob("*.json"))]


class TestGoldenTrace:
    def test_trace_covers_every_layer(self):
        _, traces, metrics = _run(backend=SerialBackend())
        categories = {r["cat"] for r in traces["attack"]}
        assert categories == {"cpu", "cache", "kernel", "attack",
                              "hid", "exec"}
        names = {r["name"] for r in traces["attack"]}
        assert "attack.rop.step" in names
        assert "attack.inject.plan" in names
        assert "kernel.execve" in names
        assert "hid.profile" in names
        snapshot = metrics["attack"]
        assert snapshot["gauges"]["cpu.cycles"] > 0
        assert snapshot["counters"]["events.cache.miss"] > 0

    def test_serial_equals_pool(self):
        _, serial, serial_metrics = _run(backend=SerialBackend())
        _, pooled, pooled_metrics = _run(backend=ProcessPoolBackend(2))
        assert (trace_jsonl("golden", serial)
                == trace_jsonl("golden", pooled))
        assert serial_metrics == pooled_metrics

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        # Reference: one uninterrupted run, no cache.
        _, reference, reference_metrics = _run(backend=SerialBackend())

        # "Interrupted" run: only the first cell completes + is cached...
        _run(backend=SerialBackend(), cell_cache=CellCache(tmp_path),
             keys=("attack",))
        # ...then the full sweep resumes: attack replays, cpu runs fresh.
        sweep = execute_plan(_plan(), RunContext(
            backend=SerialBackend(), trace=CFG,
            cell_cache=CellCache(tmp_path)))
        statuses, traces, metrics = (sweep.statuses, sweep.traces,
                                     sweep.metrics)
        assert statuses["attack"]["status"] == "cached"
        assert statuses["cpu"]["status"] == "ok"
        assert (trace_jsonl("golden", traces)
                == trace_jsonl("golden", reference))
        assert metrics == reference_metrics

    def test_chrome_export_deterministic_and_loadable(self):
        _, first, _ = _run(backend=SerialBackend())
        _, second, _ = _run(backend=SerialBackend())
        dump = json.dumps(chrome_trace(first), sort_keys=True)
        assert dump == json.dumps(chrome_trace(second), sort_keys=True)
        doc = json.loads(dump)
        assert doc["traceEvents"]

    def test_untraced_cache_entry_carries_no_trace(self, tmp_path):
        """Tracing off stores the bare value: no trace, no metrics."""
        cache = CellCache(tmp_path)
        execute_plan(_plan(keys=("cpu",)),
                     RunContext(backend=SerialBackend(), cell_cache=cache))
        [entry] = _entries(cache)
        assert set(entry["payload"]) == {"value"}
        assert set(entry["payload"]["value"]) == {"cycles"}

    def test_results_unwrapped_from_traced_cache_entry(self, tmp_path):
        results, _, _ = _run(backend=SerialBackend(),
                             cell_cache=CellCache(tmp_path), keys=("cpu",))
        [entry] = _entries(CellCache(tmp_path))
        assert set(entry["payload"]) == {"value", "trace", "metrics"}
        replay_cache = CellCache(tmp_path)
        replayed, traces, _ = _run(backend=SerialBackend(),
                                   cell_cache=replay_cache, keys=("cpu",))
        assert replay_cache.hits == 1
        assert replayed["cpu"] == results["cpu"]
        assert set(replayed["cpu"]) == {"cycles"}
        assert traces["cpu"]
