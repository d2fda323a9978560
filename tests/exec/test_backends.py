"""Backend semantics: outcome protocol, parity, crash absorption.

The process-pool cases are the satellite requirements: a *raising*
worker is absorbed as a failed cell, a *dying* worker (``os._exit``)
is retried and then absorbed as a typed ``WorkerCrashError`` — and in
neither case may the pool deadlock or take the sweep down.
"""

import pytest

from repro.core.resilience import FaultInjector
from repro.exec import (
    CellExecutionError,
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    SweepPlan,
    backend_for,
    execute_plan,
    invoke_cell,
)

from tests.exec.cells import (
    fatal_boom,
    fault_probe,
    hard_crash,
    seeded_value,
    summed,
    transient_boom,
)


class TestInvokeCell:
    def test_ok_outcome(self):
        outcome = invoke_cell(seeded_value, {"tag": "x", "cell_seed": 3})
        assert outcome["status"] == "ok"
        assert outcome["value"]["tag"] == "x"
        assert outcome["elapsed"] >= 0.0

    def test_recoverable_error_outcome(self):
        outcome = invoke_cell(transient_boom, {"cell_seed": 1})
        assert outcome["status"] == "err"
        assert outcome["recoverable"]
        assert "TransientError" in outcome["chain"]

    def test_fatal_error_outcome(self):
        outcome = invoke_cell(fatal_boom, {})
        assert outcome["status"] == "err"
        assert not outcome["recoverable"]

    def test_keyboard_interrupt_propagates(self):
        # ^C must stop the sweep, not degrade into a failed cell.
        with pytest.raises(KeyboardInterrupt):
            invoke_cell(
                lambda: (_ for _ in ()).throw(KeyboardInterrupt), {}
            )

    def test_fired_faults_ride_along(self):
        faults = FaultInjector(seed=0, rates={"hpc_drop": 1.0})
        outcome = invoke_cell(
            fault_probe, {"kind": "hpc_drop", "faults": faults},
            faults_kw="faults",
        )
        assert outcome["value"]["fired"]
        assert outcome["fired"] == {"hpc_drop": 1}


def _toy_plan(faults=None):
    plan = SweepPlan("toy", root_seed=11, faults=faults)
    for tag in ("a", "b", "c", "d"):
        plan.add(tag, seeded_value, kwargs={"tag": tag},
                 seed_kw="cell_seed")
    plan.add("total", summed, kwargs={"factor": 10},
             deps={"values": "a"}, seed_kw="cell_seed")
    return plan


def _run(plan, backend):
    return execute_plan(plan, RunContext(backend=backend))


class TestBackendFor:
    def test_serial_reference(self):
        assert isinstance(backend_for(None), SerialBackend)
        assert isinstance(backend_for(1), SerialBackend)

    def test_parallel(self):
        backend = backend_for(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)


class TestParity:
    def test_parallel_results_identical_to_serial(self):
        serial = _run(_toy_plan(), SerialBackend())
        parallel = _run(_toy_plan(), ProcessPoolBackend(2))
        assert parallel.values == serial.values

    def test_statuses_in_declaration_order(self):
        statuses = _run(_toy_plan(), ProcessPoolBackend(2)).statuses
        assert list(statuses) == ["a", "b", "c", "d", "total"]

    def test_fired_faults_absorbed_into_root_injector(self):
        faults = FaultInjector(seed=0, rates={"hpc_drop": 1.0})
        plan = SweepPlan("toy", root_seed=11, faults=faults)
        for tag in ("a", "b"):
            plan.add(tag, fault_probe, kwargs={"kind": "hpc_drop"},
                     seed_kw="cell_seed", faults_kw="faults")
        _run(plan, ProcessPoolBackend(2))
        assert faults.summary() == {"hpc_drop": 2}


def _scrub(outcome):
    """An outcome minus wall-clock noise (what the ledger strips too)."""
    return {key: value for key, value in outcome.items()
            if key != "elapsed"}


def _wave(backend, jobs, scope=0):
    return {key: _scrub(outcome)
            for key, outcome in backend.run_wave(jobs, scope)}


class TestPoolOutcomes:
    """Raw ``run_wave`` outcomes from the pool equal the serial ones:
    the outcome protocol survives pickling to a worker and back."""

    def test_error_outcomes_travel_like_values(self):
        jobs = [("cell/ok", seeded_value, {"tag": "x"}, None, None),
                ("cell/boom", transient_boom, {"cell_seed": 3},
                 None, None)]
        got = _wave(ProcessPoolBackend(2), jobs)
        assert got == _wave(SerialBackend(), jobs)
        assert got["cell/boom"]["status"] == "err"
        assert got["cell/boom"]["recoverable"] is True

    def test_dependent_waves_run_back_to_back(self):
        backend = ProcessPoolBackend(2)
        first = dict(backend.run_wave(
            [(f"cell/{index}", seeded_value,
              {"tag": f"t{index}", "cell_seed": index}, None, None)
             for index in range(3)], 0
        ))
        second_jobs = [("cell/sum", summed,
                        {"values": first["cell/0"]["value"],
                         "factor": 2.0}, None, None)]
        assert _wave(backend, second_jobs) == \
            _wave(SerialBackend(), second_jobs)

    def test_fault_injector_reproduces_its_stream_in_a_worker(self):
        def jobs():
            injector = FaultInjector(seed=42, rates={"hpc_drop": 0.5},
                                     max_fires=3)
            return [(f"cell/{index}", fault_probe,
                     {"kind": "hpc_drop", "faults": injector.derive(index),
                      "cell_seed": index}, "faults", None)
                    for index in range(4)]

        pooled = _wave(ProcessPoolBackend(2), jobs())
        assert pooled == _wave(SerialBackend(), jobs())
        assert pooled == _wave(ProcessPoolBackend(2), jobs())

    def test_trace_config_survives_the_trip(self):
        from repro.obs import TraceConfig

        trace = {"config": TraceConfig(categories=("exec",)),
                 "key": "cell/0", "seed": 5}
        jobs = [("cell/0", seeded_value, {"tag": "t"}, None, trace)]
        pooled = _wave(ProcessPoolBackend(2), jobs)
        assert pooled == _wave(SerialBackend(), jobs)
        assert pooled["cell/0"]["trace"]


class TestFailureAbsorption:
    def test_raising_worker_becomes_failed_cell(self):
        plan = _toy_plan()
        plan.add("boom", transient_boom, seed_kw="cell_seed")
        sweep = _run(plan, ProcessPoolBackend(2))
        statuses, results = sweep.statuses, sweep.values
        assert statuses["boom"]["status"] == "failed"
        assert "TransientError" in statuses["boom"]["error"]
        assert results["boom"] is None
        # Healthy cells were unaffected.
        assert all(statuses[t]["status"] == "ok"
                   for t in ("a", "b", "c", "d", "total"))

    def test_fatal_worker_error_stops_the_sweep(self):
        plan = _toy_plan()
        plan.add("boom", fatal_boom, seed_kw="cell_seed")
        with pytest.raises(CellExecutionError, match="boom"):
            _run(plan, ProcessPoolBackend(2))

    def test_crashed_worker_absorbed_without_deadlock(self):
        plan = _toy_plan()
        plan.add("crash", hard_crash, seed_kw="cell_seed")
        sweep = _run(plan, ProcessPoolBackend(2, crash_retries=1))
        statuses, results = sweep.statuses, sweep.values
        assert statuses["crash"]["status"] == "failed"
        assert "WorkerCrashError" in statuses["crash"]["error"]
        assert results["crash"] is None
        assert all(statuses[t]["status"] == "ok"
                   for t in ("a", "b", "c", "d", "total"))

    def test_skipped_dependents_match_serial_early_return(self):
        for backend in (SerialBackend(), ProcessPoolBackend(2)):
            plan = SweepPlan("toy", root_seed=1)
            plan.add("boom", transient_boom, seed_kw="cell_seed")
            plan.add("after", summed, kwargs={"factor": 2},
                     deps={"values": "boom"}, seed_kw="cell_seed")
            sweep = _run(plan, backend)
            statuses, results = sweep.statuses, sweep.values
            assert results["after"] is None
            assert "after" not in statuses  # historical early-return
