"""Unit tests for the out-of-order core's timing state: the list of
commit times (ROB and load/store queue, checked against the deque it
replaced) and the closed-form reservation stations, checked against the
list and heap loops they replaced)."""

import random
from collections import deque
from heapq import heappop, heappush, heappushpop

from repro.isa.opcodes import Opcode
from repro.kernel import System
from repro.mem.memory import Memory
from repro.obs.tracer import TraceConfig, Tracer, activate
from repro.uarch import OooParams, ReorderBuffer, make_core
from repro.uarch.structures import station
from repro.workloads import get_workload


class TestReorderBuffer:
    def test_capacity_and_free_slots(self):
        rob = ReorderBuffer(3, 2)
        assert rob.free_slots() == 3 and len(rob) == 0
        times = rob.times
        assert not times[-rob.depth] > 0.0      # not full
        times += [4.0, 9.0]
        assert rob.free_slots() == 1
        times.append(9.25)
        assert rob.free_slots() == 0
        assert times[-rob.depth] > 3.0          # full at t=3 ...
        rob.retired = 4.0
        assert rob.free_slots() == 1            # ... one slot free at t=4
        assert not times[-rob.depth] > 4.0
        assert rob.committed() == 4.0

    def test_commit_is_fifo(self):
        """Out-of-order completions commit in program order: the commit
        times are monotone, so the entries that have left are a prefix."""
        rob = ReorderBuffer(4, 2)
        last = rob.base
        for done in (3.0, 2.0, 1.0):
            last = max(last + 0.25, done)
            rob.times.append(last)
        assert rob.times[rob.depth:] == [3.0, 3.25, 3.5]
        rob.retired = 3.25
        assert len(rob) == 1 and rob.committed() == 3.25
        rob.retired = 2.0
        assert len(rob) == 3 and rob.committed() == rob.base
        assert rob.drain() == 3.5
        assert len(rob) == 0 and rob.times == [float("-inf")] * 4

    def test_lsq_deeper_than_the_rob_never_fills(self):
        rob = ReorderBuffer(4, 1 << 30)
        assert rob.lsq_depth == 4 and len(rob.mem) == 4


class _DequeRob:
    """The deque ROB the commit-time list replaced, with the dispatch
    loop's retire, ROB-full and LSQ-full loops: the reference."""

    def __init__(self, depth, lsq_depth, commit_width):
        self.rob = deque()
        self.depth = depth
        self.lsq_depth = lsq_depth
        self.inv = 1.0 / commit_width
        self.cycles = 0.0
        self.lsq = 0
        self.stalls = [0, 0]

    def _pop(self):
        done, is_mem = self.rob.popleft()
        slot = self.cycles + self.inv
        if done > slot:
            slot = done
        self.cycles = slot
        self.lsq -= is_mem
        return slot

    def dispatch(self, now, bump, is_mem):
        rob = self.rob
        while rob:
            slot = self.cycles + self.inv
            if slot > now or rob[0][0] > now:
                break
            self._pop()
        while len(rob) >= self.depth:
            self.stalls[0] += 1
            now = max(now, self._pop())
        now += bump                 # a reservation-station stall
        if is_mem:
            while self.lsq >= self.lsq_depth:
                self.stalls[1] += 1
                now = max(now, self._pop())
            self.lsq += 1
        return now

    def allocate(self, done, is_mem):
        self.rob.append((done, is_mem))

    def drain(self):
        while self.rob:
            self._pop()
        return self.cycles


class _ClosedForm:
    """The same stream through :class:`ReorderBuffer`, the way
    ``OooCore.run`` drives it."""

    def __init__(self, depth, lsq_depth, commit_width):
        self.rob = ReorderBuffer(depth, lsq_depth)
        self.inv = 1.0 / commit_width
        self.last = 0.0
        self.stalls = [0, 0]

    def _wait(self, now, index, kind):
        commit, stalls = self.rob.wait(now, index)
        self.stalls[kind] += stalls
        return commit

    def dispatch(self, now, bump, is_mem):
        rob, times, mem = self.rob, self.rob.times, self.rob.mem
        if times[-rob.depth] > now:
            now = self._wait(now, len(times) - rob.depth, 0)
        retire = now
        now += bump
        if is_mem:
            if times[mem[-rob.lsq_depth]] > retire:
                retire = self._wait(retire, mem[-rob.lsq_depth], 1)
                now = max(now, retire)
            mem.append(len(times))
        return now, retire

    def allocate(self, done, is_mem):
        self.last += self.inv
        if done > self.last:
            self.last = done
        self.rob.times.append(self.last)

    def drain(self):
        self.last = self.rob.drain()
        return self.last


class TestClosedFormCommit:
    def test_matches_the_deque_oracle(self):
        """Seeded streams — dispatch clocks with ties, out-of-order
        completions, memory ops, station stalls and serialising drains
        — give the deque's dispatch times, commit clock, occupancy,
        stall counts and drained cycles, all compared with ``==``."""
        for seed in range(300):
            rng = random.Random(seed)
            shape = (rng.randint(1, 8), rng.randint(1, 4),
                     rng.randint(1, 4))
            oracle, closed = _DequeRob(*shape), _ClosedForm(*shape)
            now = 0.0
            for step in range(120):
                now += rng.choice((0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 14.0))
                if rng.random() < 0.06:
                    # A serialising op: drain, then restart from the
                    # later of the commit and fetch clocks.
                    drained = oracle.drain()
                    assert closed.drain() == drained, (seed, step)
                    now = max(now, drained) + rng.choice((0.0, 8.0))
                    oracle.cycles = closed.rob.base = closed.last = now
                    continue
                bump = rng.choice((0.0, 0.0, 0.0, 0.5, 3.0))
                is_mem = rng.random() < 0.4
                dispatch, retire = closed.dispatch(now, bump, is_mem)
                assert dispatch == oracle.dispatch(now, bump, is_mem), \
                    (seed, step)
                closed.rob.retired = retire
                assert closed.rob.committed() == oracle.cycles, (seed, step)
                assert len(closed.rob) == len(oracle.rob), (seed, step)
                assert closed.stalls == oracle.stalls, (seed, step)
                done = dispatch + rng.choice((0.0, 1.0, 1.0, 2.0, 3.0,
                                              30.0, 200.0))
                oracle.allocate(done, is_mem)
                closed.allocate(done, is_mem)
                now = dispatch + 0.25
            assert closed.drain() == oracle.drain(), seed
            assert len(closed.rob) == 0, seed


def _list_acquire(pool, capacity, now):
    """Reference semantics: the pool as a list, rebuilt when full."""
    if len(pool) >= capacity:
        pool[:] = [t for t in pool if t > now]
        while len(pool) >= capacity:
            now = min(pool)
            pool[:] = [t for t in pool if t > now]
    return now


def _heap_acquire(pool, capacity, now):
    """The occupants' min-heap the closed form replaced: release what
    completed by *now*, then, while full, slip to the earliest
    completion, which leaves along with its ties."""
    if len(pool) >= capacity:
        while pool and pool[0] <= now:
            heappop(pool)
        while len(pool) >= capacity:
            now = heappop(pool)
            while pool and pool[0] <= now:
                heappop(pool)
    return now


def _closed_dispatch(pool, now):
    """The station check ``OooCore.run`` inlines."""
    t = pool[0]
    return t if t > now else now


class TestReservationStations:
    def test_acquire_stalls_until_an_entry_frees(self):
        pool = station(2)
        assert _closed_dispatch(pool, 0.0) == 0.0   # empty: never full
        heappushpop(pool, 10.0)
        assert _closed_dispatch(pool, 0.0) == 0.0   # one slot still free
        heappushpop(pool, 20.0)
        # Pool full at t=5: dispatch slips to the earliest completion.
        assert _closed_dispatch(pool, 5.0) == 10.0
        heappushpop(pool, 12.0)         # takes the freed slot: {12, 20}
        assert _closed_dispatch(pool, 11.0) == 12.0  # still full at 11
        assert sorted(pool) == [12.0, 20.0]
        assert _closed_dispatch(pool, 12.0) == 12.0  # 12 has left
        pool[:] = station(len(pool))    # reset_for_exec empties it
        assert _closed_dispatch(pool, 0.0) == 0.0

    def test_kinds_are_independent(self):
        """ALU, memory and branch ops each get their own pool and
        capacity; nop, halt and the serialising ops take none."""
        core = make_core("ooo", Memory(), params=OooParams(
            rs_alu=3, rs_mem=2, rs_branch=1))
        pool = core._rs_of
        kinds = {
            3: (Opcode.ADD, Opcode.ADDI, Opcode.LI, Opcode.MOV,
                Opcode.RDINSTRET),
            2: (Opcode.LW, Opcode.SB, Opcode.PUSH, Opcode.POP),
            1: (Opcode.BEQ, Opcode.JMP, Opcode.CALLR, Opcode.RET),
        }
        heads = {}
        for capacity, ops in kinds.items():
            for op in ops:
                assert len(pool[op]) == capacity, op
                assert pool[op] is pool[ops[0]], op
            heads[capacity] = pool[ops[0]]
        assert len({id(p) for p in heads.values()}) == 3
        for op in (Opcode.NOP, Opcode.HALT, Opcode.SYSCALL,
                   Opcode.CLFLUSH, Opcode.MFENCE, Opcode.RDCYCLE):
            assert pool[op] is None, op

    def test_heap_matches_the_list_oracle(self):
        """Seeded non-decreasing dispatch streams with ties and resets,
        capacities 1-8: the closed form dispatches exactly when the list
        oracle and the occupants' heap do, and holds the heap's
        occupants among its entries."""
        for seed in range(300):
            rng = random.Random(seed)
            capacity = rng.randint(1, 8)
            closed, heap, oracle = station(capacity), [], []
            now = 0.0
            for step in range(200):
                if rng.random() < 0.02:
                    closed[:] = station(capacity)
                    heap.clear()
                    oracle.clear()
                # Forward in small (often zero) steps: ties between
                # arrivals and completions abound.
                now += rng.choice((0.0, 0.0, 0.25, 0.5, 1.0, 3.0))
                expected = _list_acquire(oracle, capacity, now)
                assert _heap_acquire(heap, capacity, now) == expected, (
                    seed, step)
                got = _closed_dispatch(closed, now)
                assert got == expected, (seed, step)
                live = sorted(t for t in closed if t > got)
                assert live == sorted(t for t in heap if t > got), seed
                done = got + rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 4.0,
                                         200.0))
                heappushpop(closed, done)
                heappush(heap, done)
                oracle.append(done)
                now = got


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
    """The LSQ is the ROB's memory entries."""

    def test_full(self):
        _, counters = _sha_counters(lsq_depth=1)
        assert counters["ooo.lsq_stalls"] > 0

    def test_full_is_judged_before_the_station_wait(self):
        """A memory op waits on its station, then on the LSQ, which is
        judged at the dispatch time before the station wait: a
        one-entry station in front of a one-entry queue stalls on both.
        The count is the deque loop's (judged after the station wait,
        it would be 4)."""
        _, counters = _sha_counters(rob_depth=8, rs_mem=1, lsq_depth=1)
        assert counters["ooo.lsq_stalls"] == 17934

    def test_release_matches_the_head_seq(self):
        """Every memory commit releases the oldest slot, so a queue as
        deep as the ROB never fills: timing equals an unbounded one."""
        bounded, counters = _sha_counters(rob_depth=8, lsq_depth=8)
        unbounded, _ = _sha_counters(rob_depth=8, lsq_depth=1 << 30)
        assert "ooo.lsq_stalls" not in counters
        assert bounded.cycles == unbounded.cycles
        assert bounded.pmu.read() == unbounded.pmu.read()
