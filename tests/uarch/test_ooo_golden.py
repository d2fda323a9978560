"""Pinned timing goldens for the out-of-order core.

``test_ooo_core`` checks that the OoO core is architecturally right and
that two runs agree; this file pins *what* they agree on.  Each scenario
records the final cycle counter, the full PMU snapshot, the L1i / L1d /
L2 :class:`~repro.cache.cache.CacheStats` and a sha256 over the commit
stream's ``(seq, pc)`` pairs.  The traced scenario also pins a digest of
every trace record and metric the run emitted, so the telemetry path
(non-inlined cache accesses, ``ooo.*`` counters and spans) is held to
the same bytes as the plain one.

A change to any literal below is a change to the simulated machine's
timing: it moves fig4/fig5 ``--uarch ooo`` artefacts and needs the gate
bands re-derived, never a silent update.  ``python -m
tests.uarch.test_ooo_golden`` prints the current measurements.
"""

import dataclasses
import hashlib
import json
import struct

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.cpu.cpu import CpuConfig
from repro.kernel import System
from repro.obs.tracer import TraceConfig, Tracer, activate
from repro.uarch import OooParams
from repro.workloads import get_workload
from tests.conftest import SECRET


class _CommitDigest:
    """``commit_log`` stand-in hashing ``(seq, pc)`` as commits arrive."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def append(self, entry):
        self.sha.update(struct.pack("<QI", entry[0], entry[1]))
        self.count += 1


def _kernel(name, iterations, params=None):
    def build():
        system = System(seed=7, uarch="ooo", uarch_params=params)
        workload = get_workload(name)
        system.install_binary("/bin/w",
                              workload.build(iterations=iterations))
        return system, "/bin/w"
    return build


def _spectre(variant, params=None, config=None):
    def build():
        system = System(seed=21, target_data=SECRET, uarch="ooo",
                        uarch_params=params, cpu_config=config)
        program = build_spectre(
            variant, SpectreConfig(secret_length=len(SECRET), repeats=1))
        system.install_binary("/bin/a", program)
        return system, "/bin/a"
    return build


SCENARIOS = {
    "basicmath": _kernel("basicmath", 30),
    "sha": _kernel("sha", 4),
    # Small enough that the ROB, every station pool and the LSQ fill.
    "sha-narrow": _kernel("sha", 4, OooParams(
        rob_depth=8, rs_alu=2, rs_mem=2, rs_branch=1, lsq_depth=3)),
    "v1": _spectre("v1"),
    "rsb": _spectre("rsb"),
    "sbo": _spectre("sbo"),
    "btb": _spectre("btb"),
    "v1-rob1": _spectre("v1", params=OooParams(rob_depth=1)),
    "v1-invisible": _spectre(
        "v1", config=CpuConfig(invisible_speculation=True)),
    "v1-traced": _spectre("v1"),
    # Traced with ROB, stations and LSQ all tiny: stall spans and cache
    # miss/evict events on every path that emits them.
    "sha-tiny-traced": _kernel("sha", 4, OooParams(
        rob_depth=3, rs_alu=2, rs_mem=2, rs_branch=1, lsq_depth=1)),
}


def _digest(value):
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def measure(name):
    """Run scenario *name* on a fresh machine; returns its observables."""
    system, path = SCENARIOS[name]()
    tracer = Tracer(TraceConfig()) if name.endswith("-traced") else None
    log = _CommitDigest()
    if tracer is not None:
        with activate(tracer):
            process = system.spawn(path)
            process.cpu.commit_log = log
            process.run_to_completion(max_instructions=60_000_000)
        tracer.finalize()
    else:
        process = system.spawn(path)
        process.cpu.commit_log = log
        process.run_to_completion(max_instructions=60_000_000)
    cpu = process.cpu
    caches = cpu.caches
    observed = {
        "cycles": repr(cpu.cycles),
        "pmu": cpu.pmu.read(),
        "caches": {
            level: dataclasses.astuple(cache.stats)
            for level, cache in (("l1i", caches.l1i), ("l1d", caches.l1d),
                                 ("l2", caches.l2))
        },
        "commits": (log.count, log.sha.hexdigest()),
    }
    if tracer is not None:
        observed["records"] = _digest(tracer.records)
        observed["metrics"] = _digest(tracer.metrics.snapshot())
    return observed


GOLDEN = {
    "basicmath": {
        "cycles": "4786.5",
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
            "spec_instructions": 1984, "spec_loads": 0, "spec_cache_fills": 0,
            "squashed_instructions": 1984, "cycles": 4786,
            "branch_mispredictions": 61, "cond_branch_mispredictions": 61,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 3, "l1d_hits": 2, "l1d_misses": 1,
            "l1d_read_accesses": 1, "l1d_read_misses": 0,
            "l1d_write_accesses": 2, "l1d_write_misses": 1,
            "l1d_evictions": 0, "l1d_writebacks": 0, "l1i_accesses": 3255,
            "l1i_hits": 3248, "l1i_misses": 7, "l2_accesses": 8, "l2_hits": 0,
            "l2_misses": 8, "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 3258, "total_cache_hits": 3250,
            "total_cache_misses": 8, "dtlb_accesses": 3, "dtlb_hits": 2,
            "dtlb_misses": 1, "itlb_accesses": 1985, "itlb_hits": 1984,
            "itlb_misses": 1,
        },
        "caches": {
            "l1i": (3255, 3248, 7, 3255, 7, 0, 0, 0, 0, 0),
            "l1d": (3, 2, 1, 1, 0, 2, 1, 0, 0, 0),
            "l2": (8, 0, 8, 7, 7, 1, 1, 0, 0, 0),
        },
        "commits": (3791, "c8b11da0a15734e97e0b7430dd2376ecc5b435d7"
                    "6477224c4576aedbba0228f0"),
    },
    "btb": {
        "cycles": "883127.0",
        "pmu": {
            "instructions": 75575, "alu_instructions": 41838,
            "mul_div_instructions": 4192, "load_instructions": 4288,
            "store_instructions": 16, "branch_instructions": 21207,
            "cond_branch_instructions": 12451, "branches_taken": 4114,
            "call_instructions": 226, "ret_instructions": 225,
            "indirect_jump_instructions": 112, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1596, "fence_stall_cycles": 32896,
            "spec_instructions": 1804, "spec_loads": 179,
            "spec_cache_fills": 17, "squashed_instructions": 1804,
            "cycles": 883127, "branch_mispredictions": 115,
            "cond_branch_mispredictions": 83, "return_mispredictions": 0,
            "indirect_mispredictions": 32, "btb_hits": 111, "btb_misses": 1,
            "rsb_overflows": 0, "l1d_accesses": 4934, "l1d_hits": 833,
            "l1d_misses": 4101, "l1d_read_accesses": 4692,
            "l1d_read_misses": 4099, "l1d_write_accesses": 242,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 23077, "l1i_hits": 23066, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 28011, "total_cache_hits": 23899,
            "total_cache_misses": 4112, "dtlb_accesses": 4934,
            "dtlb_hits": 4927, "dtlb_misses": 7, "itlb_accesses": 1805,
            "itlb_hits": 1804, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (23077, 23066, 11, 23077, 11, 0, 0, 0, 0, 4096),
            "l1d": (4934, 833, 4101, 4692, 4099, 242, 2, 0, 0, 4096),
            "l2": (4112, 0, 4112, 4110, 4110, 2, 2, 0, 0, 4096),
        },
        "commits": (59173, "ae093d7de5bfa813d5b78d7e7657e86b44ead3b4"
                    "b5cec08ce68a9444f70c0cfd"),
    },
    "rsb": {
        "cycles": "881367.0",
        "pmu": {
            "instructions": 74135, "alu_instructions": 41214,
            "mul_div_instructions": 4096, "load_instructions": 4096,
            "store_instructions": 32, "branch_instructions": 20583,
            "cond_branch_instructions": 12339, "branches_taken": 4098,
            "call_instructions": 18, "ret_instructions": 17,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785088,
            "mispredict_penalty_cycles": 1162, "fence_stall_cycles": 32896,
            "spec_instructions": 615, "spec_loads": 32,
            "spec_cache_fills": 17, "squashed_instructions": 615,
            "cycles": 881367, "branch_mispredictions": 83,
            "cond_branch_mispredictions": 67, "return_mispredictions": 16,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4195, "l1d_hits": 96,
            "l1d_misses": 4099, "l1d_read_accesses": 4145,
            "l1d_read_misses": 4097, "l1d_write_accesses": 50,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 17119, "l1i_hits": 17110, "l1i_misses": 9,
            "l2_accesses": 4108, "l2_hits": 0, "l2_misses": 4108,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 21314, "total_cache_hits": 17206,
            "total_cache_misses": 4108, "dtlb_accesses": 4195,
            "dtlb_hits": 4188, "dtlb_misses": 7, "itlb_accesses": 616,
            "itlb_hits": 615, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (17119, 17110, 9, 17119, 9, 0, 0, 0, 0, 4096),
            "l1d": (4195, 96, 4099, 4145, 4097, 50, 2, 0, 0, 4096),
            "l2": (4108, 0, 4108, 4106, 4106, 2, 2, 0, 0, 4096),
        },
        "commits": (57733, "c0d2dc88643cbd20ce4bc84cacf7c87ae5b998ea"
                    "3f9ea09721eae57e7f8b6ce4"),
    },
    "sbo": {
        "cycles": "883006.25",
        "pmu": {
            "instructions": 75687, "alu_instructions": 42062,
            "mul_div_instructions": 4096, "load_instructions": 4208,
            "store_instructions": 112, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4130,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1386, "fence_stall_cycles": 32896,
            "spec_instructions": 1091, "spec_loads": 68,
            "spec_cache_fills": 17, "squashed_instructions": 1091,
            "cycles": 883006, "branch_mispredictions": 99,
            "cond_branch_mispredictions": 99, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4666, "l1d_hits": 565,
            "l1d_misses": 4101, "l1d_read_accesses": 4389,
            "l1d_read_misses": 4098, "l1d_write_accesses": 277,
            "l1d_write_misses": 3, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22172, "l1i_hits": 22161, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 26838, "total_cache_hits": 22726,
            "total_cache_misses": 4112, "dtlb_accesses": 4666,
            "dtlb_hits": 4659, "dtlb_misses": 7, "itlb_accesses": 1092,
            "itlb_hits": 1091, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (22172, 22161, 11, 22172, 11, 0, 0, 0, 0, 4096),
            "l1d": (4666, 565, 4101, 4389, 4098, 277, 3, 0, 0, 4096),
            "l2": (4112, 0, 4112, 4109, 4109, 3, 3, 0, 0, 4096),
        },
        "commits": (59285, "dff27309e3de099fe759e5f262eefa62ee670766"
                    "42e462cf2abc3f9e18282311"),
    },
    "sha": {
        "cycles": "57177.5",
        "pmu": {
            "instructions": 129461, "alu_instructions": 76225,
            "mul_div_instructions": 16384, "load_instructions": 1459,
            "store_instructions": 16734, "branch_instructions": 35038,
            "cond_branch_instructions": 17767, "branches_taken": 498,
            "call_instructions": 2, "ret_instructions": 1,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 4, "memory_stall_cycles": 201096,
            "mispredict_penalty_cycles": 798, "fence_stall_cycles": 0,
            "spec_instructions": 1867, "spec_loads": 103,
            "spec_cache_fills": 0, "squashed_instructions": 1867,
            "cycles": 57177, "branch_mispredictions": 57,
            "cond_branch_mispredictions": 57, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 18327, "l1d_hits": 17290,
            "l1d_misses": 1037, "l1d_read_accesses": 1565,
            "l1d_read_misses": 6, "l1d_write_accesses": 16762,
            "l1d_write_misses": 1031, "l1d_evictions": 525,
            "l1d_writebacks": 525, "l1i_accesses": 37338, "l1i_hits": 37319,
            "l1i_misses": 19, "l2_accesses": 1056, "l2_hits": 6,
            "l2_misses": 1050, "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 55665, "total_cache_hits": 54609,
            "total_cache_misses": 1056, "dtlb_accesses": 18327,
            "dtlb_hits": 18309, "dtlb_misses": 18, "itlb_accesses": 1868,
            "itlb_hits": 1867, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (37338, 37319, 19, 37338, 19, 0, 0, 0, 0, 0),
            "l1d": (18327, 17290, 1037, 1565, 6, 16762, 1031, 525, 525, 0),
            "l2": (1056, 6, 1050, 25, 20, 1031, 1030, 0, 0, 0),
        },
        "commits": (129460, "82ad584ca447a349f60be8790076205e64cc096f"
                    "d51ce4bf129197dc3fb3b61f"),
    },
    "sha-narrow": {
        "cycles": "75007.0",
        "pmu": {
            "instructions": 129461, "alu_instructions": 76225,
            "mul_div_instructions": 16384, "load_instructions": 1459,
            "store_instructions": 16734, "branch_instructions": 35038,
            "cond_branch_instructions": 17767, "branches_taken": 498,
            "call_instructions": 2, "ret_instructions": 1,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 4, "memory_stall_cycles": 201672,
            "mispredict_penalty_cycles": 798, "fence_stall_cycles": 0,
            "spec_instructions": 252, "spec_loads": 8, "spec_cache_fills": 0,
            "squashed_instructions": 252, "cycles": 75007,
            "branch_mispredictions": 57, "cond_branch_mispredictions": 57,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 18215, "l1d_hits": 17178, "l1d_misses": 1037,
            "l1d_read_accesses": 1470, "l1d_read_misses": 6,
            "l1d_write_accesses": 16745, "l1d_write_misses": 1031,
            "l1d_evictions": 525, "l1d_writebacks": 525,
            "l1i_accesses": 35723, "l1i_hits": 35704, "l1i_misses": 19,
            "l2_accesses": 1056, "l2_hits": 6, "l2_misses": 1050,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 53938, "total_cache_hits": 52882,
            "total_cache_misses": 1056, "dtlb_accesses": 18215,
            "dtlb_hits": 18197, "dtlb_misses": 18, "itlb_accesses": 253,
            "itlb_hits": 252, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (35723, 35704, 19, 35723, 19, 0, 0, 0, 0, 0),
            "l1d": (18215, 17178, 1037, 1470, 6, 16745, 1031, 525, 525, 0),
            "l2": (1056, 6, 1050, 25, 20, 1031, 1030, 0, 0, 0),
        },
        "commits": (129460, "d04cfacc88046b9d07ca569f747e99a8200f46d0"
                    "39778b9acc9686caf52e49dc"),
    },
    "sha-tiny-traced": {
        "cycles": "88568.0",
        "pmu": {
            "instructions": 129461, "alu_instructions": 76225,
            "mul_div_instructions": 16384, "load_instructions": 1459,
            "store_instructions": 16734, "branch_instructions": 35038,
            "cond_branch_instructions": 17767, "branches_taken": 498,
            "call_instructions": 2, "ret_instructions": 1,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 4, "memory_stall_cycles": 201672,
            "mispredict_penalty_cycles": 798, "fence_stall_cycles": 0,
            "spec_instructions": 12, "spec_loads": 0, "spec_cache_fills": 0,
            "squashed_instructions": 12, "cycles": 88568,
            "branch_mispredictions": 57, "cond_branch_mispredictions": 57,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 18200, "l1d_hits": 17163, "l1d_misses": 1037,
            "l1d_read_accesses": 1462, "l1d_read_misses": 6,
            "l1d_write_accesses": 16738, "l1d_write_misses": 1031,
            "l1d_evictions": 525, "l1d_writebacks": 525,
            "l1i_accesses": 35483, "l1i_hits": 35464, "l1i_misses": 19,
            "l2_accesses": 1056, "l2_hits": 6, "l2_misses": 1050,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 53683, "total_cache_hits": 52627,
            "total_cache_misses": 1056, "dtlb_accesses": 18200,
            "dtlb_hits": 18182, "dtlb_misses": 18, "itlb_accesses": 13,
            "itlb_hits": 12, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (35483, 35464, 19, 35483, 19, 0, 0, 0, 0, 0),
            "l1d": (18200, 17163, 1037, 1462, 6, 16738, 1031, 525, 525, 0),
            "l2": (1056, 6, 1050, 25, 20, 1031, 1030, 0, 0, 0),
        },
        "commits": (129460, "8c5b7e7d584e1abed31f93b2ca4be86ee170ea15"
                    "4077097104603aff93baaafb"),
        "records": ("a38627b7ebe6fd2b3095b09124028edc5f1faffc"
                    "15ae4c8923f18e043d897e5d"),
        "metrics": ("796c57193b96b94a7c767d7156520d1344ea1eab"
                    "7f034ddfc3fb826a68cf1745"),
    },
    "v1": {
        "cycles": "886487.5",
        "pmu": {
            "instructions": 75831, "alu_instructions": 42078,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4130,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 790080,
            "mispredict_penalty_cycles": 1386, "fence_stall_cycles": 33024,
            "spec_instructions": 976, "spec_loads": 92,
            "spec_cache_fills": 17, "squashed_instructions": 976,
            "cycles": 886487, "branch_mispredictions": 99,
            "cond_branch_mispredictions": 99, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4735, "l1d_hits": 613,
            "l1d_misses": 4122, "l1d_read_accesses": 4605,
            "l1d_read_misses": 4120, "l1d_write_accesses": 130,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22087, "l1i_hits": 22076, "l1i_misses": 11,
            "l2_accesses": 4133, "l2_hits": 0, "l2_misses": 4133,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 26822, "total_cache_hits": 22689,
            "total_cache_misses": 4133, "dtlb_accesses": 4735,
            "dtlb_hits": 4728, "dtlb_misses": 7, "itlb_accesses": 977,
            "itlb_hits": 976, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (22087, 22076, 11, 22087, 11, 0, 0, 0, 0, 4112),
            "l1d": (4735, 613, 4122, 4605, 4120, 130, 2, 0, 0, 4112),
            "l2": (4133, 0, 4133, 4131, 4131, 2, 2, 0, 0, 4112),
        },
        "commits": (59397, "ea8e44a0b9d8006f583f2b5c2a772fc0b01afd4e"
                    "aa755db8f500d043136d331b"),
    },
    "v1-invisible": {
        "cycles": "889303.5",
        "pmu": {
            "instructions": 75799, "alu_instructions": 42046,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4146,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 793152,
            "mispredict_penalty_cycles": 1162, "fence_stall_cycles": 33024,
            "spec_instructions": 848, "spec_loads": 92, "spec_cache_fills": 0,
            "squashed_instructions": 848, "cycles": 889303,
            "branch_mispredictions": 83, "cond_branch_mispredictions": 83,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4643, "l1d_hits": 522, "l1d_misses": 4121,
            "l1d_read_accesses": 4513, "l1d_read_misses": 4119,
            "l1d_write_accesses": 130, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0, "l1i_accesses": 21959,
            "l1i_hits": 21948, "l1i_misses": 11, "l2_accesses": 4132,
            "l2_hits": 0, "l2_misses": 4132, "l2_evictions": 0,
            "l2_writebacks": 0, "total_cache_accesses": 26602,
            "total_cache_hits": 22470, "total_cache_misses": 4132,
            "dtlb_accesses": 4643, "dtlb_hits": 4637, "dtlb_misses": 6,
            "itlb_accesses": 849, "itlb_hits": 848, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (21959, 21948, 11, 21959, 11, 0, 0, 0, 0, 4112),
            "l1d": (4643, 522, 4121, 4513, 4119, 130, 2, 0, 0, 4112),
            "l2": (4132, 0, 4132, 4130, 4130, 2, 2, 0, 0, 4112),
        },
        "commits": (59365, "f240403fd283504df9a407cded2cb5b837d95e35"
                    "74b949cd20d83dd64174840f"),
    },
    "v1-rob1": {
        "cycles": "917839.25",
        "pmu": {
            "instructions": 75799, "alu_instructions": 42046,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4146,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 793344,
            "mispredict_penalty_cycles": 1162, "fence_stall_cycles": 33024,
            "spec_instructions": 0, "spec_loads": 0, "spec_cache_fills": 0,
            "squashed_instructions": 0, "cycles": 917839,
            "branch_mispredictions": 83, "cond_branch_mispredictions": 83,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4643, "l1d_hits": 522, "l1d_misses": 4121,
            "l1d_read_accesses": 4513, "l1d_read_misses": 4119,
            "l1d_write_accesses": 130, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0, "l1i_accesses": 21111,
            "l1i_hits": 21100, "l1i_misses": 11, "l2_accesses": 4132,
            "l2_hits": 0, "l2_misses": 4132, "l2_evictions": 0,
            "l2_writebacks": 0, "total_cache_accesses": 25754,
            "total_cache_hits": 21622, "total_cache_misses": 4132,
            "dtlb_accesses": 4643, "dtlb_hits": 4637, "dtlb_misses": 6,
            "itlb_accesses": 1, "itlb_hits": 0, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (21111, 21100, 11, 21111, 11, 0, 0, 0, 0, 4112),
            "l1d": (4643, 522, 4121, 4513, 4119, 130, 2, 0, 0, 4112),
            "l2": (4132, 0, 4132, 4130, 4130, 2, 2, 0, 0, 4112),
        },
        "commits": (59365, "c8b322df0f5f2d35a871dbd52293acaa489acbae"
                    "d80f1e9eae4755ec5b592e16"),
    },
    "v1-traced": {
        "cycles": "886487.5",
        "pmu": {
            "instructions": 75831, "alu_instructions": 42078,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4130,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 790080,
            "mispredict_penalty_cycles": 1386, "fence_stall_cycles": 33024,
            "spec_instructions": 976, "spec_loads": 92,
            "spec_cache_fills": 17, "squashed_instructions": 976,
            "cycles": 886487, "branch_mispredictions": 99,
            "cond_branch_mispredictions": 99, "return_mispredictions": 0,
            "indirect_mispredictions": 0, "btb_hits": 0, "btb_misses": 0,
            "rsb_overflows": 0, "l1d_accesses": 4735, "l1d_hits": 613,
            "l1d_misses": 4122, "l1d_read_accesses": 4605,
            "l1d_read_misses": 4120, "l1d_write_accesses": 130,
            "l1d_write_misses": 2, "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22087, "l1i_hits": 22076, "l1i_misses": 11,
            "l2_accesses": 4133, "l2_hits": 0, "l2_misses": 4133,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 26822, "total_cache_hits": 22689,
            "total_cache_misses": 4133, "dtlb_accesses": 4735,
            "dtlb_hits": 4728, "dtlb_misses": 7, "itlb_accesses": 977,
            "itlb_hits": 976, "itlb_misses": 1,
        },
        "caches": {
            "l1i": (22087, 22076, 11, 22087, 11, 0, 0, 0, 0, 4112),
            "l1d": (4735, 613, 4122, 4605, 4120, 130, 2, 0, 0, 4112),
            "l2": (4133, 0, 4133, 4131, 4131, 2, 2, 0, 0, 4112),
        },
        "commits": (59397, "ea8e44a0b9d8006f583f2b5c2a772fc0b01afd4e"
                    "aa755db8f500d043136d331b"),
        "records": ("76bcdd1dfb320fadf328991f5a4707644f3e7af1"
                    "d4d2558c715f6aa730d6e47c"),
        "metrics": ("bf44ed7979a1145ba42c955d0a0f75b9a9f8c50c"
                    "c24163b09d427a07a471e617"),
    },
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    return request.param, measure(request.param)


class TestOooGolden:
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

    def test_telemetry(self, scenario):
        name, observed = scenario
        for key in ("records", "metrics"):
            assert observed.get(key) == GOLDEN[name].get(key), key


if __name__ == "__main__":
    for scenario_name in sorted(SCENARIOS):
        print(scenario_name, measure(scenario_name))
