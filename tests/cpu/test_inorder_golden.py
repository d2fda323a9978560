"""Pinned timing goldens for the in-order core, on both engines.

``test_fast_loop`` and ``test_superblock`` check that the superblock
engine agrees with the step() loop; this file pins *what* they agree
on, so a timing or cache change that moves both engines alike still
fails.  Each scenario records the final cycle counter, the full PMU
snapshot, the L1i / L1d / L2 :class:`~repro.cache.cache.CacheStats` and
a sha256 over the committed pc stream, and every literal must hold
under ``--engine sb`` and ``--engine step`` alike.

The step loop exposes each committed pc as step() is entered.  A
compiled block commits a prefix of the trace it was compiled from (a
side exit leaves right after the instruction whose outcome left the
trace), so under ``sb`` the block's ``done`` count names the pcs it
committed: the first ``done`` pcs of its body, repeated for a loop.

A change to any literal below is a change to the simulated machine's
timing: it moves the in-order artefacts and needs the gate bands
re-derived, never a silent update.  ``python -m
tests.cpu.test_inorder_golden`` prints the current measurements.
"""

import dataclasses
import hashlib
import struct

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.cpu import engine_override
from repro.cpu.superblock import SuperblockEngine
from repro.kernel import System
from repro.workloads import get_workload
from tests.conftest import SECRET

ENGINES = ("sb", "step")


class _PcDigest:
    """sha256 over committed pcs, fed as they retire."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, pc):
        self.sha.update(struct.pack("<I", pc))
        self.count += 1


def _kernel(name, iterations):
    def build():
        system = System(seed=7)
        workload = get_workload(name)
        system.install_binary("/bin/w",
                              workload.build(iterations=iterations))
        return system, "/bin/w"
    return build


def _spectre(variant):
    def build():
        system = System(seed=21, target_data=SECRET)
        program = build_spectre(
            variant, SpectreConfig(secret_length=len(SECRET), repeats=1))
        system.install_binary("/bin/a", program)
        return system, "/bin/a"
    return build


SCENARIOS = {
    "basicmath": _kernel("basicmath", 30),
    "sha": _kernel("sha", 4),
    "v1": _spectre("v1"),
    "rsb": _spectre("rsb"),
    "sbo": _spectre("sbo"),
    "btb": _spectre("btb"),
}


def _record_commits(cpu, log):
    """Feed *log* every pc *cpu* commits, through step() and blocks."""
    step = cpu.step

    def recording_step():
        log.add(cpu.state.pc)
        return step()

    cpu.step = recording_step
    if cpu._engine != "sb":
        return
    engine = cpu._sb = SuperblockEngine()
    translate = engine.translate

    def recording_translate(core, pc):
        pcs = [entry[0] for entry in engine._collect(core, pc)[0]]
        block = translate(core, pc)
        if not block:
            return block
        closure = block[0]

        def recording_block(*args):
            result = closure(*args)
            for i in range(result[1]):
                log.add(pcs[i % len(pcs)])
            return result

        block = (recording_block,) + block[1:]
        engine.blocks[pc] = block
        return block

    engine.translate = recording_translate


def measure(name, engine):
    """Run scenario *name* under *engine*; returns its observables."""
    with engine_override(engine):
        system, path = SCENARIOS[name]()
        process = system.spawn(path)
    log = _PcDigest()
    _record_commits(process.cpu, log)
    process.run_to_completion(max_instructions=60_000_000)
    cpu = process.cpu
    caches = cpu.caches
    return {
        "cycles": repr(cpu.cycles),
        "pmu": cpu.pmu.read(),
        "caches": {
            level: dataclasses.astuple(cache.stats)
            for level, cache in (("l1i", caches.l1i), ("l1d", caches.l1d),
                                 ("l2", caches.l2))
        },
        "commits": (log.count, log.sha.hexdigest()),
    }


GOLDEN = {
    "basicmath": {
        "cycles": "4596.0",
        "pmu": {
            "instructions": 3792, "alu_instructions": 2551,
            "mul_div_instructions": 678, "load_instructions": 0,
            "store_instructions": 0, "branch_instructions": 1240,
            "cond_branch_instructions": 649, "branches_taken": 61,
            "call_instructions": 2, "ret_instructions": 1,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 0, "memory_stall_cycles": 960,
            "mispredict_penalty_cycles": 854, "fence_stall_cycles": 0,
            "spec_instructions": 2908, "spec_loads": 0, "spec_cache_fills": 0,
            "squashed_instructions": 2908, "cycles": 4596,
            "branch_mispredictions": 61, "cond_branch_mispredictions": 61,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 3, "l1d_hits": 2, "l1d_misses": 1,
            "l1d_read_accesses": 1, "l1d_read_misses": 0,
            "l1d_write_accesses": 2, "l1d_write_misses": 1, "l1d_evictions": 0,
            "l1d_writebacks": 0, "l1i_accesses": 4179, "l1i_hits": 4172,
            "l1i_misses": 7, "l2_accesses": 8, "l2_hits": 0, "l2_misses": 8,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 4182, "total_cache_hits": 4174,
            "total_cache_misses": 8, "dtlb_accesses": 3, "dtlb_hits": 2,
            "dtlb_misses": 1, "itlb_accesses": 2909, "itlb_hits": 2908,
            "itlb_misses": 1,
        },
        "caches": {
            "l1i": (4179, 4172, 7, 4179, 7, 0, 0, 0, 0, 0),
            "l1d": (3, 2, 1, 1, 0, 2, 1, 0, 0, 0),
            "l2": (8, 0, 8, 7, 7, 1, 1, 0, 0, 0),
        },
        "commits": (3792, "ccbcca9a4d67df58bb90adbd73dd6d56eeada90b"
                    "9f02ad3155a3ce6392dadecf"),
    },
    "btb": {
        "cycles": "868315.25",
        "pmu": {
            "instructions": 75605, "alu_instructions": 41868,
            "mul_div_instructions": 4192, "load_instructions": 4288,
            "store_instructions": 16, "branch_instructions": 21207,
            "cond_branch_instructions": 12451, "branches_taken": 4099,
            "call_instructions": 226, "ret_instructions": 225,
            "indirect_jump_instructions": 112, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1806, "fence_stall_cycles": 32896,
            "spec_instructions": 2308, "spec_loads": 246,
            "spec_cache_fills": 17, "squashed_instructions": 2308,
            "cycles": 868315, "branch_mispredictions": 130,
            "cond_branch_mispredictions": 98, "return_mispredictions": 0,
            "indirect_mispredictions": 32, "btb_hits": 111, "btb_misses": 1,
            "rsb_overflows": 0, "l1d_accesses": 5001, "l1d_hits": 900,
            "l1d_misses": 4101, "l1d_read_accesses": 4759,
            "l1d_read_misses": 4099, "l1d_write_accesses": 242,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 23581, "l1i_hits": 23570, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 28582, "total_cache_hits": 24470,
            "total_cache_misses": 4112, "dtlb_accesses": 5001,
            "dtlb_hits": 4994, "dtlb_misses": 7, "itlb_accesses": 2309,
            "itlb_hits": 2308, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (23581, 23570, 11, 23581, 11, 0, 0, 0, 0, 4096),
            "l1d": (5001, 900, 4101, 4759, 4099, 242, 2, 0, 0, 4096),
            "l2": (4112, 0, 4112, 4110, 4110, 2, 2, 0, 0, 4096),
        },
        "commits": (75605, "61f6167dc082af2d251ee7e06661ddd51bf10557"
                    "152887e67f51d5bbb155a221"),
    },
    "rsb": {
        "cycles": "866447.25",
        "pmu": {
            "instructions": 74141, "alu_instructions": 41220,
            "mul_div_instructions": 4096, "load_instructions": 4096,
            "store_instructions": 32, "branch_instructions": 20583,
            "cond_branch_instructions": 12339, "branches_taken": 4095,
            "call_instructions": 18, "ret_instructions": 17,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785088,
            "mispredict_penalty_cycles": 1176, "fence_stall_cycles": 32896,
            "spec_instructions": 623, "spec_loads": 32, "spec_cache_fills": 17,
            "squashed_instructions": 623, "cycles": 866447,
            "branch_mispredictions": 84, "cond_branch_mispredictions": 68,
            "return_mispredictions": 16, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4195, "l1d_hits": 96, "l1d_misses": 4099,
            "l1d_read_accesses": 4145, "l1d_read_misses": 4097,
            "l1d_write_accesses": 50, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0, "l1i_accesses": 17127,
            "l1i_hits": 17118, "l1i_misses": 9, "l2_accesses": 4108,
            "l2_hits": 0, "l2_misses": 4108, "l2_evictions": 0,
            "l2_writebacks": 0, "total_cache_accesses": 21322,
            "total_cache_hits": 17214, "total_cache_misses": 4108,
            "dtlb_accesses": 4195, "dtlb_hits": 4188, "dtlb_misses": 7,
            "itlb_accesses": 624, "itlb_hits": 623, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (17127, 17118, 9, 17127, 9, 0, 0, 0, 0, 4096),
            "l1d": (4195, 96, 4099, 4145, 4097, 50, 2, 0, 0, 4096),
            "l2": (4108, 0, 4108, 4106, 4106, 2, 2, 0, 0, 4096),
        },
        "commits": (74141, "25e7fecaf1840dbfd4a62b358622cb6147bc5474"
                    "5b79af7ace06ddd1384fbbc2"),
    },
    "sbo": {
        "cycles": "868011.25",
        "pmu": {
            "instructions": 75701, "alu_instructions": 42076,
            "mul_div_instructions": 4096, "load_instructions": 4208,
            "store_instructions": 112, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4123,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1582, "fence_stall_cycles": 32896,
            "spec_instructions": 1530, "spec_loads": 86,
            "spec_cache_fills": 17, "squashed_instructions": 1530,
            "cycles": 868011, "branch_mispredictions": 113,
            "cond_branch_mispredictions": 113, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4703, "l1d_hits": 602,
            "l1d_misses": 4101, "l1d_read_accesses": 4407,
            "l1d_read_misses": 4098, "l1d_write_accesses": 296,
            "l1d_write_misses": 3, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22611, "l1i_hits": 22600, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 27314, "total_cache_hits": 23202,
            "total_cache_misses": 4112, "dtlb_accesses": 4703,
            "dtlb_hits": 4696, "dtlb_misses": 7, "itlb_accesses": 1531,
            "itlb_hits": 1530, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (22611, 22600, 11, 22611, 11, 0, 0, 0, 0, 4096),
            "l1d": (4703, 602, 4101, 4407, 4098, 296, 3, 0, 0, 4096),
            "l2": (4112, 0, 4112, 4109, 4109, 3, 3, 0, 0, 4096),
        },
        "commits": (75701, "ef2a6b51f14ae9fb1e9e7e7d85d13c287b1098c8"
                    "e5e1351a18eef0fbf133762c"),
    },
    "sha": {
        "cycles": "249339.25",
        "pmu": {
            "instructions": 129461, "alu_instructions": 76225,
            "mul_div_instructions": 16384, "load_instructions": 1459,
            "store_instructions": 16734, "branch_instructions": 35038,
            "cond_branch_instructions": 17767, "branches_taken": 498,
            "call_instructions": 2, "ret_instructions": 1,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 4, "memory_stall_cycles": 199752,
            "mispredict_penalty_cycles": 798, "fence_stall_cycles": 0,
            "spec_instructions": 2736, "spec_loads": 189,
            "spec_cache_fills": 0, "squashed_instructions": 2736,
            "cycles": 249339, "branch_mispredictions": 57,
            "cond_branch_mispredictions": 57, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 18462, "l1d_hits": 17425,
            "l1d_misses": 1037, "l1d_read_accesses": 1651,
            "l1d_read_misses": 6, "l1d_write_accesses": 16811,
            "l1d_write_misses": 1031, "l1d_evictions": 525,
            "l1d_writebacks": 525, "l1i_accesses": 38207, "l1i_hits": 38188,
            "l1i_misses": 19, "l2_accesses": 1056, "l2_hits": 6,
            "l2_misses": 1050, "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 56669, "total_cache_hits": 55613,
            "total_cache_misses": 1056, "dtlb_accesses": 18462,
            "dtlb_hits": 18444, "dtlb_misses": 18, "itlb_accesses": 2737,
            "itlb_hits": 2736, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (38207, 38188, 19, 38207, 19, 0, 0, 0, 0, 0),
            "l1d": (18462, 17425, 1037, 1651, 6, 16811, 1031, 525, 525, 0),
            "l2": (1056, 6, 1050, 25, 20, 1031, 1030, 0, 0, 0),
        },
        "commits": (129461, "0b80441ac574d7ad16c6d898a39712f929131cff"
                    "56503bb7a6660caac1f0fb76"),
    },
    "v1": {
        "cycles": "872609.25",
        "pmu": {
            "instructions": 75861, "alu_instructions": 42108,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4115,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 790080,
            "mispredict_penalty_cycles": 1596, "fence_stall_cycles": 33024,
            "spec_instructions": 1604, "spec_loads": 193,
            "spec_cache_fills": 19, "squashed_instructions": 1604,
            "cycles": 872609, "branch_mispredictions": 114,
            "cond_branch_mispredictions": 114, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4836, "l1d_hits": 712,
            "l1d_misses": 4124, "l1d_read_accesses": 4706,
            "l1d_read_misses": 4122, "l1d_write_accesses": 130,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22715, "l1i_hits": 22704, "l1i_misses": 11,
            "l2_accesses": 4135, "l2_hits": 0, "l2_misses": 4135,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 27551, "total_cache_hits": 23416,
            "total_cache_misses": 4135, "dtlb_accesses": 4836,
            "dtlb_hits": 4829, "dtlb_misses": 7, "itlb_accesses": 1605,
            "itlb_hits": 1604, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (22715, 22704, 11, 22715, 11, 0, 0, 0, 0, 4112),
            "l1d": (4836, 712, 4124, 4706, 4122, 130, 2, 0, 0, 4112),
            "l2": (4135, 0, 4135, 4133, 4133, 2, 2, 0, 0, 4112),
        },
        "commits": (75861, "b267cf62376a8ab6bcee6557b5135da746880ff5"
                    "e3d73f488bc56a8ab37a46eb"),
    },
}


@pytest.fixture(scope="module",
                params=[(name, engine) for name in sorted(SCENARIOS)
                        for engine in ENGINES],
                ids=lambda param: "-".join(param))
def scenario(request):
    name, engine = request.param
    return name, measure(name, engine)


class TestInorderGolden:
    def test_cycles(self, scenario):
        name, observed = scenario
        assert observed["cycles"] == GOLDEN[name]["cycles"]

    def test_pmu(self, scenario):
        name, observed = scenario
        assert observed["pmu"] == GOLDEN[name]["pmu"]

    def test_cache_stats(self, scenario):
        name, observed = scenario
        assert observed["caches"] == GOLDEN[name]["caches"]

    def test_commit_stream(self, scenario):
        name, observed = scenario
        assert observed["commits"] == GOLDEN[name]["commits"]
        # Every retired instruction is in the stream exactly once.
        assert observed["commits"][0] == observed["pmu"]["instructions"]


if __name__ == "__main__":
    for scenario_name in sorted(SCENARIOS):
        print(scenario_name, measure(scenario_name, "step"))
