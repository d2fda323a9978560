"""Unit tests for the out-of-order core's timing state: the tuple ROB,
the heap reservation stations and the load/store-queue count."""

import random
from heapq import heappush

from repro.isa.opcodes import Opcode
from repro.kernel import System
from repro.mem.memory import Memory
from repro.obs.tracer import TraceConfig, Tracer, activate
from repro.uarch import OooParams, ReorderBuffer, acquire, make_core
from repro.workloads import get_workload


class TestReorderBuffer:
    def test_capacity_and_free_slots(self):
        rob = ReorderBuffer(3)
        assert rob.free_slots() == 3
        rob.append((4.0, False, 0, 0x100))
        rob.append((9.0, True, 1, 0x108))
        assert rob.free_slots() == 1
        rob.append((5.0, False, 2, 0x110))
        assert rob.free_slots() == 0
        rob.append((6.0, False, 3, 0x118))
        assert rob.free_slots() == 0

    def test_commit_is_fifo(self):
        rob = ReorderBuffer(4)
        for seq in range(3):
            rob.append((float(3 - seq), False, seq, seq * 8))
        assert [rob.popleft()[2] for _ in range(3)] == [0, 1, 2]
        assert len(rob) == 0


def _list_acquire(pool, capacity, now):
    """Reference semantics: the pool as a list, rebuilt when full."""
    if len(pool) >= capacity:
        pool[:] = [t for t in pool if t > now]
        while len(pool) >= capacity:
            now = min(pool)
            pool[:] = [t for t in pool if t > now]
    return now


class TestReservationStations:
    def test_acquire_stalls_until_an_entry_frees(self):
        pool = [10.0, 20.0]
        # Pool full at t=5: dispatch slips to the earliest completion.
        assert acquire(pool, 2, 5.0) == 10.0
        heappush(pool, 12.0)            # takes the freed slot: {12, 20}
        assert acquire(pool, 2, 11.0) == 12.0   # still full at t=11
        assert sorted(pool) == [20.0]

    def test_kinds_are_independent(self):
        """ALU, memory and branch ops each get their own pool and
        capacity; nop, halt and the serialising ops take none."""
        core = make_core("ooo", Memory(), params=OooParams(
            rs_alu=3, rs_mem=2, rs_branch=1))
        pool, cap = core._rs_of, core._rs_cap
        kinds = {
            3: (Opcode.ADD, Opcode.ADDI, Opcode.LI, Opcode.MOV,
                Opcode.RDINSTRET),
            2: (Opcode.LW, Opcode.SB, Opcode.PUSH, Opcode.POP),
            1: (Opcode.BEQ, Opcode.JMP, Opcode.CALLR, Opcode.RET),
        }
        heads = {}
        for capacity, ops in kinds.items():
            for op in ops:
                assert cap[op] == capacity, op
                assert pool[op] is pool[ops[0]], op
            heads[capacity] = pool[ops[0]]
        assert len({id(p) for p in heads.values()}) == 3
        for op in (Opcode.NOP, Opcode.HALT, Opcode.SYSCALL,
                   Opcode.CLFLUSH, Opcode.MFENCE, Opcode.RDCYCLE):
            assert pool[op] is None, op

    def test_heap_matches_the_list_oracle(self):
        """Seeded (now, completion) streams with ties, capacities 1-8:
        the heap returns the oracle's dispatch times and keeps the same
        multiset of occupants."""
        for seed in range(200):
            rng = random.Random(seed)
            capacity = rng.randint(1, 8)
            heap, oracle = [], []
            now = 0.0
            for _ in range(150):
                # Mostly forward in small (often zero) steps, sometimes
                # back: ties between arrivals and completions abound.
                now = max(0.0, now + rng.choice(
                    (0.0, 0.0, 0.25, 0.5, 1.0, 3.0, -1.0)))
                expected = _list_acquire(oracle, capacity, now)
                if len(heap) >= capacity:
                    got = acquire(heap, capacity, now)
                else:
                    got = now
                assert got == expected, (seed, now)
                assert sorted(heap) == sorted(oracle), seed
                done = got + rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 4.0,
                                         200.0))
                heappush(heap, done)
                oracle.append(done)


def _sha_counters(**params):
    """Run sha on the OoO core under a metrics-only tracer."""
    tracer = Tracer(TraceConfig(categories=()))
    with activate(tracer):
        system = System(seed=7, uarch="ooo",
                        uarch_params=OooParams(**params))
        system.install_binary("/bin/w",
                              get_workload("sha").build(iterations=2))
        process = system.spawn("/bin/w")
        process.run_to_completion()
    return process.cpu, tracer.metrics.snapshot()["counters"]


class TestLoadStoreQueue:
    """The LSQ is the count of the ROB's memory entries."""

    def test_full(self):
        _, counters = _sha_counters(lsq_depth=1)
        assert counters["ooo.lsq_stalls"] > 0

    def test_release_matches_the_head_seq(self):
        """Every memory commit releases the oldest slot, so a queue as
        deep as the ROB never fills: timing equals an unbounded one."""
        bounded, counters = _sha_counters(rob_depth=8, lsq_depth=8)
        unbounded, _ = _sha_counters(rob_depth=8, lsq_depth=1 << 30)
        assert "ooo.lsq_stalls" not in counters
        assert bounded.cycles == unbounded.cycles
        assert bounded.pmu.read() == unbounded.pmu.read()
