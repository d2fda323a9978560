"""The simulator self-profiler: gating, attribution, determinism.

Acceptance properties:

1. **Gating** — a disabled profiler (the default) or an
   enabled-but-fully-filtered one binds nothing: the cores run the
   identical uninstrumented fast path.
2. **Non-perturbation** — an *enabled* profiler observes without
   perturbing: architectural state (cycles, PMU counters, output
   bytes) is bit-identical to an unprofiled run, on both cores.
3. **Determinism** — everything but the ``wall`` section is a pure
   function of (plan, seed): :func:`profile_bytes` is byte-identical
   across the serial and warm-pool backends.
"""

import io

import pytest

from repro.exec import (
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    SweepPlan,
    execute_plan,
)
from repro.kernel import System
from repro.obs.prof import (
    NULL_PROFILER,
    PROFILE_FORMAT,
    SUBSYSTEMS,
    ProfileConfig,
    Profiler,
    activate_profile,
    collapsed_stack,
    current_profiler,
    format_hotspots,
    merge_profiles,
    parse_profile_filter,
    profile_bytes,
    strip_profile_volatile,
)
from repro.workloads import get_workload

from tests.obs import cells


def _run_workload(uarch="inorder", iterations=40, profiler=None):
    """One basicmath run, optionally under an ambient profiler."""
    import contextlib

    ctx = (activate_profile(profiler) if profiler is not None
           else contextlib.nullcontext())
    with ctx:
        system = System(seed=5, uarch=uarch)
        system.install_binary(
            "/bin/w",
            get_workload("basicmath").build(iterations=iterations),
        )
        process = system.spawn("/bin/w")
        process.run_to_completion(max_instructions=5_000_000)
    return process


def _arch_state(process):
    return (int(process.cpu.cycles), bytes(process.stdout),
            dict(process.cpu.pmu.read()))


def _snapshot(uarch="inorder"):
    profiler = Profiler()
    _run_workload(uarch=uarch, profiler=profiler)
    return profiler.snapshot()


class TestConfig:
    def test_parse_filter(self):
        assert parse_profile_filter(None) is None
        assert parse_profile_filter("") is None
        assert parse_profile_filter("execute, branch") == \
            ("execute", "branch")
        with pytest.raises(ValueError, match="bogus"):
            parse_profile_filter("bogus")

    def test_active(self):
        assert ProfileConfig().active
        assert ProfileConfig(subsystems=("execute",)).active
        assert not ProfileConfig(subsystems=()).active

    def test_ambient_default_is_null(self):
        assert current_profiler() is NULL_PROFILER
        assert not current_profiler().enabled


class TestGating:
    def test_filtered_profiler_binds_nothing(self):
        filtered = Profiler(ProfileConfig(subsystems=()))
        process = _run_workload(profiler=filtered)
        assert process.cpu._prof is None
        assert filtered.instructions == 0

    def test_active_profiler_binds(self):
        profiler = Profiler()
        process = _run_workload(profiler=profiler)
        assert process.cpu._prof is profiler

    def test_filtered_run_arch_identical_to_unprofiled(self):
        reference = _arch_state(_run_workload())
        filtered = _arch_state(_run_workload(
            profiler=Profiler(ProfileConfig(subsystems=()))
        ))
        assert filtered == reference


class TestNonPerturbation:
    @pytest.mark.parametrize("uarch", ("inorder", "ooo"))
    def test_profiled_arch_state_identical(self, uarch):
        reference = _arch_state(_run_workload(uarch=uarch))
        profiler = Profiler()
        profiled = _arch_state(
            _run_workload(uarch=uarch, profiler=profiler)
        )
        assert profiled == reference
        assert profiler.instructions > 0


class TestSnapshot:
    def test_schema_and_attribution(self):
        snap = _snapshot()
        assert snap["format"] == PROFILE_FORMAT
        assert set(snap["subsystems"]) == set(SUBSYSTEMS)
        assert snap["instructions"] > 0
        assert snap["cycles"] > 0
        assert snap["subsystems"]["execute"]["cycles"] > 0
        assert snap["subsystems"]["branch"]["cycles"] > 0
        assert snap["opcodes"]
        top = snap["blocks"][0]
        assert top["start"].startswith("0x")
        assert top["count"] > 0 and top["cycles"] > 0

    @pytest.mark.parametrize("uarch", ("inorder", "ooo"))
    def test_cycles_reconcile_with_the_core(self, uarch):
        profiler = Profiler()
        process = _run_workload(uarch=uarch, profiler=profiler)
        snap = profiler.snapshot()
        # Attribution is exhaustive up to clamping: the bucketed
        # virtual cycles must land within a few percent of the core's
        # own cycle counter.
        assert snap["cycles"] == pytest.approx(
            float(process.cpu.cycles), rel=0.05
        )

    def test_filter_applies_to_export(self):
        profiler = Profiler(ProfileConfig(subsystems=("branch",)))
        _run_workload(profiler=profiler)
        snap = profiler.snapshot()
        assert set(snap["subsystems"]) == {"branch"}
        # The opcode/block tables ride with the execute subsystem.
        assert "opcodes" not in snap
        assert "blocks" not in snap

    def test_profile_bytes_deterministic_and_wall_free(self):
        first, second = _snapshot(), _snapshot()
        assert profile_bytes(first) == profile_bytes(second)
        assert b'"wall"' not in profile_bytes(first)
        assert "wall" not in strip_profile_volatile(first)
        assert "wall" in first  # the snapshot itself keeps it


class TestMergeAndExport:
    def test_merge_sums_and_reranks(self):
        snap = _snapshot()
        merged = merge_profiles({"a": snap, "b": snap})
        assert merged["instructions"] == 2 * snap["instructions"]
        name, row = next(iter(snap["opcodes"].items()))
        assert merged["opcodes"][name]["count"] == 2 * row["count"]
        assert merged["blocks"][0]["count"] == \
            2 * snap["blocks"][0]["count"]

    def test_collapsed_stack_dimensions(self):
        snap = _snapshot()
        for by in ("subsystem", "opcode", "block"):
            lines = collapsed_stack({"cell": snap}, by=by).splitlines()
            assert lines
            frame, count = lines[0].rsplit(" ", 1)
            assert frame.startswith("cell;")
            assert int(count) > 0
        with pytest.raises(ValueError, match="dimension"):
            collapsed_stack({"cell": snap}, by="bogus")

    def test_format_hotspots_tables(self):
        out = format_hotspots(merge_profiles({"a": _snapshot()}), top=5)
        assert "subsystem" in out
        assert "opcode" in out
        assert "basic block" in out


def _plan():
    plan = SweepPlan("profgolden", 7)
    plan.add("attack", cells.spectre_cell, kwargs=dict(samples=2),
             seed_kw="cell_seed")
    plan.add("cpu", cells.cpu_cell, kwargs=dict(iterations=15),
             seed_kw="cell_seed")
    return plan


def _profiles(backend=None):
    sweep = execute_plan(_plan(), RunContext(backend=backend,
                                             profile=ProfileConfig()))
    return {key: profile_bytes(snapshot)
            for key, snapshot in sweep.profiles.items()}


class TestBackendParity:
    def test_serial_fills_profiles_in_declaration_order(self):
        sweep = execute_plan(_plan(), RunContext(backend=SerialBackend(),
                                                 profile=ProfileConfig()))
        assert list(sweep.profiles) == ["attack", "cpu"]

    def test_serial_equals_pool(self):
        assert _profiles(SerialBackend()) == \
            _profiles(ProcessPoolBackend(2))


class TestExecutorPhases:
    def test_phase_breakdown_filled(self):
        phases = execute_plan(
            _plan(), RunContext(backend=SerialBackend())).phases
        assert set(phases) == {"schedule", "cache_lookup", "compute",
                               "ipc", "merge"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert phases["compute"] > 0.0

    def test_progress_phases_line(self):
        from repro.exec import SweepProgress

        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress.start("fig5", 4)
        progress.phases({"schedule": 0.0001, "compute": 1.25,
                         "ipc": 0.5, "merge": 0.02,
                         "cache_lookup": 0.0})
        line = stream.getvalue()
        assert "compute 1.25s" in line
        assert "ipc 0.50s" in line
        assert "schedule" not in line  # sub-5ms phases elided
