"""The CpuCore interface and the microarchitecture registry."""

import dataclasses

import pytest

from repro.cpu.cpu import Cpu
from repro.kernel import System
from repro.mem import Memory
from repro.uarch import (
    DEFAULT_UARCH,
    CpuCore,
    OooCore,
    OooParams,
    UARCHS,
    make_core,
    register_uarch,
)


def _memory():
    return Memory()


class TestRegistry:
    def test_both_cores_registered(self):
        assert set(UARCHS) >= {"inorder", "ooo"}
        assert DEFAULT_UARCH == "inorder"

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown microarchitecture"):
            make_core("nope", _memory())

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="inorder"):
            make_core("nope", _memory())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_uarch("inorder", Cpu)


class TestMakeCore:
    def test_inorder_is_the_unmodified_cpu(self):
        core = make_core("inorder", _memory())
        assert type(core) is Cpu
        assert isinstance(core, CpuCore)

    def test_ooo_core(self):
        core = make_core("ooo", _memory())
        assert type(core) is OooCore
        assert isinstance(core, CpuCore)

    def test_inorder_rejects_uarch_params(self):
        with pytest.raises(ValueError, match="no uarch params"):
            make_core("inorder", _memory(), params=OooParams())

    def test_ooo_takes_params(self):
        core = make_core("ooo", _memory(), params=OooParams(rob_depth=4))
        assert core.params.rob_depth == 4
        assert core.rob.depth == 4

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(OooParams)])
    @pytest.mark.parametrize("value", (0, -3, 2.0, True, "4", None))
    def test_ooo_params_must_be_positive_ints(self, field, value):
        """A degenerate knob is refused up front, naming the field,
        instead of failing deep inside run() (an empty ROB, a division
        by zero) or, for the LSQ, running regardless."""
        with pytest.raises(ValueError, match=f"OooParams.{field} "):
            OooParams(**{field: value})

    def test_common_attribute_surface(self):
        """Every attribute the kernel/scenario layers touch exists on
        both cores — the contract documented on CpuCore."""
        for name in ("inorder", "ooo"):
            core = make_core(name, _memory())
            for attribute in ("memory", "caches", "predictor", "config",
                              "state", "dtlb", "itlb", "pmu", "cycles",
                              "shadow_stack", "kernel_mode",
                              "syscall_handler", "watchdog"):
                assert hasattr(core, attribute), (name, attribute)


class TestSystemPlumbing:
    def _spawn(self, **system_kwargs):
        from repro.workloads import get_workload

        system = System(seed=1, **system_kwargs)
        system.install_binary(
            "/bin/w", get_workload("basicmath").build(iterations=1)
        )
        return system.spawn("/bin/w")

    def test_default_system_spawns_inorder(self):
        assert type(self._spawn().cpu) is Cpu

    def test_uarch_knob_spawns_ooo(self):
        assert type(self._spawn(uarch="ooo").cpu) is OooCore

    def test_uarch_params_reach_the_core(self):
        process = self._spawn(uarch="ooo",
                              uarch_params=OooParams(rob_depth=2))
        assert process.cpu.rob.depth == 2
