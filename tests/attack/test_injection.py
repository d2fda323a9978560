"""End-to-end ROP injection tests: the paper's Figure 1 flow."""

import pytest

from repro.attack import (
    SpectreConfig,
    build_spectre,
    plan_execve_injection,
    plan_shellcode_injection,
)
from repro.cpu import CpuConfig
from repro.errors import ProtectionFault, ShadowStackViolation
from repro.kernel import ProcessState, System
from repro.workloads import get_workload
from tests.conftest import SECRET


@pytest.fixture(scope="module")
def staged():
    """System with host + attack installed, plus the injection plan."""
    system = System(seed=11, target_data=SECRET)
    host = get_workload("basicmath").build(iterations=40, hosted=True)
    attack = build_spectre(
        "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
    )
    system.install_binary("/bin/host", host)
    system.install_binary("/bin/cr", attack)
    plan = plan_execve_injection(host, "/bin/host", "/bin/cr")
    return system, host, plan


class TestInjectionPlan:
    def test_chain_uses_real_gadget(self, staged):
        _, _, plan = staged
        assert plan.chain.num_words == 4  # pop a0; pop a1; ret path
        assert "pop a0; pop a1; ret" in plan.chain.describe()

    def test_payload_contains_attack_path(self, staged):
        _, _, plan = staged
        assert b"/bin/cr\x00" in plan.payload.blob

    def test_describe(self, staged):
        _, _, plan = staged
        text = plan.describe()
        assert "execve(/bin/cr)" in text


class TestInjectionExecution:
    def test_full_secret_exfiltration(self, staged):
        system, _, plan = staged
        process = system.spawn("/bin/host", argv=plan.argv)
        process.run_to_completion(max_instructions=20_000_000)
        assert process.image_name == "spectre_v1-plain"
        assert bytes(process.stdout) == SECRET

    def test_pid_and_pmu_preserved(self, staged):
        system, _, plan = staged
        process = system.spawn("/bin/host", argv=plan.argv)
        pid = process.pid
        process.run_to_completion(max_instructions=20_000_000)
        assert process.pid == pid
        # PMU evidence of the pre-execve host phase remains.
        assert process.pmu.read()["instructions"] > 0

    def test_without_payload_host_is_benign(self, staged):
        system, _, _ = staged
        process = system.spawn("/bin/host")
        process.run_to_completion(max_instructions=20_000_000)
        assert process.image_name.startswith("basicmath")
        assert process.stdout == bytearray()


class TestCountermeasures:
    def test_dep_blocks_shellcode(self, staged):
        system, _, _ = staged
        blob, buffer_address = plan_shellcode_injection("/bin/host")
        process = system.spawn("/bin/host", argv=[blob])
        process.run_to_completion()
        assert isinstance(process.fault, ProtectionFault)
        assert process.fault.address == buffer_address

    def test_shadow_stack_kills_chain(self, staged):
        _, host, plan = staged
        guarded = System(seed=11, target_data=SECRET,
                         cpu_config=CpuConfig(shadow_stack=True))
        guarded.install_binary("/bin/host", host)
        process = guarded.spawn("/bin/host", argv=plan.argv)
        process.run_to_completion()
        assert isinstance(process.fault, ShadowStackViolation)

    def test_aslr_breaks_payload(self, staged):
        _, host, plan = staged
        attack = build_spectre(
            "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        randomized = System(seed=77, target_data=SECRET, aslr=True)
        randomized.install_binary("/bin/host", host)
        randomized.install_binary("/bin/cr", attack)
        process = randomized.spawn("/bin/host", argv=plan.argv)
        process.run_to_completion(max_instructions=20_000_000)
        # Gadget/stack addresses no longer line up: no exfiltration.
        assert bytes(process.stdout) != SECRET

    def test_canary_host_aborts_blind_payload(self):
        system = System(seed=11, target_data=SECRET)
        host = get_workload("basicmath").build(
            iterations=40, canary=0x5EC2E7
        )
        attack = build_spectre(
            "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        system.install_binary("/bin/host", host)
        system.install_binary("/bin/cr", attack)
        plan = plan_execve_injection(host, "/bin/host", "/bin/cr",
                                     assume_canary=True)
        process = system.spawn("/bin/host", argv=plan.argv)
        process.run_to_completion()
        assert process.exit_code == 97  # canary abort

    def test_leaked_canary_bypasses(self):
        system = System(seed=11, target_data=SECRET)
        host = get_workload("basicmath").build(
            iterations=40, canary=0x5EC2E7
        )
        attack = build_spectre(
            "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        system.install_binary("/bin/host", host)
        system.install_binary("/bin/cr", attack)
        plan = plan_execve_injection(host, "/bin/host", "/bin/cr",
                                     canary_value=0x5EC2E7)
        process = system.spawn("/bin/host", argv=plan.argv)
        process.run_to_completion(max_instructions=20_000_000)
        assert bytes(process.stdout) == SECRET
