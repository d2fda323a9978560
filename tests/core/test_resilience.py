"""Resilience layer: fault matrix, retry/backoff, watchdog.

The contract under test: every injected fault kind surfaces as a typed
error or a degraded (partial) report — never a hang, never a truncated
file.
"""

import pytest

from repro.attack.calibrate import calibrate
from repro.core.experiments import run_fig4
from repro.core.experiments.common import train_detectors
from repro.core.resilience import (
    FAULT_KINDS,
    FaultInjector,
    Retrier,
    RetryPolicy,
    VirtualClock,
    Watchdog,
    with_retry,
)
from repro.errors import (
    BudgetExceededError,
    CalibrationError,
    ClassifierConvergenceError,
    FatalError,
    RetryExhaustedError,
    SampleCorruptionError,
    TransientError,
    is_transient,
)


class TestWatchdog:
    def test_counts_and_trips(self):
        watchdog = Watchdog(100, label="unit")
        watchdog.charge(60)
        assert watchdog.consumed == 60
        assert watchdog.remaining == 40
        assert not watchdog.exhausted
        with pytest.raises(BudgetExceededError) as info:
            watchdog.charge(50)
        assert info.value.consumed == 110
        assert info.value.budget == 100
        assert "unit" in str(info.value)
        assert watchdog.exhausted

    def test_budget_error_is_not_transient(self):
        try:
            Watchdog(1).charge(2)
        except BudgetExceededError as exc:
            assert not is_transient(exc)

    def test_infinite_rop_chain_is_bounded(self):
        """A non-halting injected chain trips the watchdog, not a hang."""
        from repro.core.resilience import RUNAWAY_SOURCE
        from repro.kernel import System, build_binary

        system = System(seed=3)
        system.install_binary(
            "/bin/runaway", build_binary("runaway", RUNAWAY_SOURCE)
        )
        process = system.spawn("/bin/runaway")
        watchdog = Watchdog(30_000, label="rop-chain")
        with pytest.raises(BudgetExceededError):
            process.run_to_completion(
                max_instructions=10_000_000, watchdog=watchdog
            )
        # The budget is enforced to within one charge stride.
        assert watchdog.consumed <= 30_000 + process.cpu.WATCHDOG_STRIDE
        # The machine survives the trip and can be resumed or retired.
        assert process.cpu.watchdog is None

    def test_scheduler_run_charges_watchdog(self):
        from repro.core.experiments.common import co_run
        from repro.kernel import System, build_binary

        system = System(seed=3)
        system.install_binary("/bin/spin", build_binary("spin", """
        main:
        spin:
            jmp spin
        """))
        process = system.spawn("/bin/spin")
        with pytest.raises(BudgetExceededError):
            co_run([process], quantum=1000, watchdog=Watchdog(5000))


class TestRetry:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0,
                             max_delay=5.0, jitter=0.0)
        import random
        rng = random.Random(0)
        delays = [policy.delay_for(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_retries_transient_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise CalibrationError("noise")
            return "done"

        retrier = Retrier(RetryPolicy(max_attempts=5, seed=4))
        assert retrier.call(flaky) == "done"
        assert len(attempts) == 3
        assert [t.outcome for t in retrier.telemetry] == \
            ["error", "error", "ok"]
        assert retrier.clock.sleeps == 2
        assert retrier.clock.elapsed > 0.0

    def test_exhaustion_chains_cause(self):
        def always_fails():
            raise CalibrationError("still noisy")

        retrier = Retrier(RetryPolicy(max_attempts=3, seed=4))
        with pytest.raises(RetryExhaustedError) as info:
            retrier.call(always_fails)
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, CalibrationError)
        assert is_transient(info.value)  # via the cause chain

    def test_fatal_errors_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise FatalError("bad config")

        retrier = Retrier(RetryPolicy(max_attempts=5, seed=4))
        with pytest.raises(FatalError):
            retrier.call(broken)
        assert len(calls) == 1

    def test_same_seed_same_schedule(self):
        def fails():
            raise CalibrationError("x")

        schedules = []
        for _ in range(2):
            retrier = Retrier(RetryPolicy(max_attempts=4, seed=11))
            with pytest.raises(RetryExhaustedError):
                retrier.call(fails)
            schedules.append([t.backoff for t in retrier.telemetry])
        assert schedules[0] == schedules[1]

    def test_decorator_exposes_retrier(self):
        state = {"n": 0}

        @with_retry(RetryPolicy(max_attempts=3, seed=2),
                    clock=VirtualClock())
        def sometimes():
            state["n"] += 1
            if state["n"] == 1:
                raise TransientError("first one free")
            return state["n"]

        assert sometimes() == 2
        assert len(sometimes.retrier.telemetry) == 2


class TestFaultMatrix:
    """Each fault kind -> a typed error or a degraded report."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rates={"gremlins": 1.0})

    def test_hpc_drop_all_raises_typed(self):
        from repro.core.scenario import Scenario, ScenarioConfig

        faults = FaultInjector(seed=0, rates={"hpc_drop": 1.0})
        scenario = Scenario(ScenarioConfig(seed=0), faults=faults)
        with pytest.raises(SampleCorruptionError):
            scenario.benign_samples(4)

    def test_hpc_garble_degrades_not_raises(self):
        from repro.core.scenario import Scenario, ScenarioConfig

        clean = Scenario(ScenarioConfig(seed=0)).benign_samples(3)
        faults = FaultInjector(seed=0, rates={"hpc_garble": 1.0})
        garbled = Scenario(
            ScenarioConfig(seed=0), faults=faults
        ).benign_samples(3)
        assert len(garbled) == len(clean)
        assert any(
            g.events != c.events for g, c in zip(garbled, clean)
        )

    def test_miscalibration_exhausts_retries_typed(self):
        faults = FaultInjector(seed=0, rates={"miscalibration": 1.0})
        with pytest.raises(RetryExhaustedError) as info:
            calibrate(seed=0, faults=faults,
                      retry_policy=RetryPolicy(max_attempts=2, seed=0))
        assert isinstance(info.value.__cause__, CalibrationError)

    def test_miscalibration_recovers_under_cap(self):
        faults = FaultInjector(seed=0, rates={"miscalibration": 1.0},
                               max_fires=1)
        result = calibrate(seed=0, faults=faults)
        assert result.separable
        assert len(calibrate.last_retrier.telemetry) == 2

    def test_runaway_speculation_recovers_via_watchdog(self):
        faults = FaultInjector(
            seed=0, rates={"runaway_speculation": 1.0}, max_fires=1
        )
        result = calibrate(seed=0, faults=faults)
        assert result.separable
        errors = [t.error for t in calibrate.last_retrier.telemetry
                  if t.outcome == "error"]
        assert any("CalibrationError" in e for e in errors)

    def test_classifier_divergence_raises_typed(self):
        from repro.core.scenario import Scenario, ScenarioConfig
        from repro.core.experiments.common import split_training

        scenario = Scenario(ScenarioConfig(seed=0))
        benign = scenario.benign_samples(30)
        attack = scenario.attack_samples_mixed_variants(30)
        train, _ = split_training(benign, attack, seed=0)
        faults = FaultInjector(
            seed=0, rates={"classifier_divergence": 1.0}
        )
        with pytest.raises(ClassifierConvergenceError):
            train_detectors(train, ("lr",), seed=0, faults=faults)

    def test_divergence_degrades_sweep_to_partial(self):
        faults = FaultInjector(
            seed=0, rates={"classifier_divergence": 1.0}
        )
        result = run_fig4(
            seed=0, hosts=("basicmath",), feature_sizes=(4,),
            classifier="lr", benign_per_host=30, attack_per_variant=10,
            variants=("v1",), faults=faults,
        )
        assert result.partial
        assert result.accuracies == {}
        status = result.sweep.statuses["host/basicmath"]
        assert status["status"] == "failed"
        assert "ClassifierConvergenceError" in status["error"]
        assert "WARNING: partial results" in result.format()

    def test_cache_corruption_flushes(self):
        class _Caches:
            flushed = 0

            def flush_all(self):
                self.flushed += 1

        caches = _Caches()
        faults = FaultInjector(seed=0, rates={"cache_corruption": 1.0})
        assert faults.corrupt_cache(caches)
        assert caches.flushed == 1

    def test_every_kind_consultable_and_logged(self):
        faults = FaultInjector(
            seed=0, rates={kind: 1.0 for kind in FAULT_KINDS}
        )
        for kind in FAULT_KINDS:
            assert faults.should_fire(kind, context="matrix")
        assert faults.summary() == {kind: 1 for kind in FAULT_KINDS}
        assert len(faults.log) == len(FAULT_KINDS)

    def test_same_seed_same_decisions(self):
        logs = []
        for _ in range(2):
            faults = FaultInjector(
                seed=9, rates={kind: 0.5 for kind in FAULT_KINDS}
            )
            for index in range(20):
                faults.should_fire(
                    FAULT_KINDS[index % len(FAULT_KINDS)], context="det"
                )
            logs.append(faults.log)
        assert logs[0] == logs[1]


class TestDeterminism:
    def test_same_seed_same_report_under_faults(self):
        """Two same-seed runs (faults armed) produce identical reports."""
        reports = []
        for _ in range(2):
            faults = FaultInjector(
                seed=5,
                rates={"hpc_garble": 0.2, "classifier_divergence": 0.3},
            )
            result = run_fig4(
                seed=5, hosts=("basicmath",), feature_sizes=(4, 1),
                classifier="lr", benign_per_host=30,
                attack_per_variant=10, variants=("v1",), faults=faults,
            )
            reports.append(result.format())
        assert reports[0] == reports[1]

    def test_same_seed_same_calibration_telemetry(self):
        telemetries = []
        for _ in range(2):
            faults = FaultInjector(
                seed=6, rates={"miscalibration": 0.6}, max_fires=2
            )
            calibrate(seed=6, faults=faults)
            telemetries.append(calibrate.last_retrier.telemetry)
        assert telemetries[0] == telemetries[1]
