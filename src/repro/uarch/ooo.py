"""The out-of-order (Tomasulo) core: same ISA contract, OoO timing.

Execution model
---------------
Instructions dispatch in program order into a reorder buffer and
reservation stations, execute as their operands become ready, and
commit strictly in order at ``commit_width`` per cycle.  The functional
state executes eagerly at dispatch — the register file ``state.regs``
always holds the newest values — so the architectural results are
instruction-for-instruction identical to the in-order core.  There is
no rename table and no separate committed register file: scheduling
reads only the per-register ready times, and the ROB drains at every
exit of :meth:`OooCore.run`, so between calls ``state.regs`` is the
committed state.  What differs is *time*: per-register ready
times, ROB / reservation-station / LSQ occupancy and the commit stream
produce the cycle counter, so load misses overlap with independent
work, long dividers hide behind ALU chains, and ``rdcycle`` (a
serialising read, as on real hardware) observes the drained machine.

The timing state keeps one float per in-flight entry: its commit
time, fixed as it dispatches, ``max(c_prev + 1/commit_width, done)``,
and appended to the ROB's list of commit times (see
:mod:`repro.uarch.structures`), so no loop retires entries: a full ROB
or LSQ is one comparison, and occupancy and the committed clock
(``self.cycles``) are read by bisect only where something reads them.
On its common paths the dispatch loop calls only the memory accessors
and the ``ALU``/``TAKEN`` functions of :mod:`repro.isa.semantics`,
which every executor shares: the 2-bit BHT, the D-TLB MRU page and
the L1 hit arms (bound through
:meth:`~repro.cache.cache.Cache.hit_path`, as the wrong-path walk
does) are inline, with their tallies batched in locals;
anything else goes through the hierarchy.

Speculation
-----------
On a branch misprediction the wrong path executes in the ROB's *free
slots* — reorder-buffer depth, not a fixed window, bounds transient
execution, which is the microarchitectural knob Spectre exploits on
real OoO hardware (Kocher et al.).  Wrong-path uops are charged against
those free slots without allocating entries; they read through a store
buffer (their stores never reach memory), and the squash restores the
register values checkpointed at the branch.  Their instruction and
data fetches still fill the caches and TLBs — the covert channel — and
they account the same ``spec_*`` / ``squashed_instructions`` PMU events
the in-order core does, with a genuinely different signature (the
window breathes with ROB occupancy instead of being a constant).

Serialising instructions (``rdcycle``, ``mfence``, ``clflush``,
``syscall``, ``halt``) drain the ROB and retire immediately; the fast
quantum loop also drains at every exit path, so cross-quantum state is
always architectural and a run is bit-deterministic regardless of how
``run()`` calls slice it.
"""

import dataclasses
from heapq import heappushpop

from repro.branch.predictor import BranchPredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.cpu import CpuConfig, speculate
from repro.cpu.pmu import Pmu, direct_counters, op_tally
from repro.cpu.shadow_stack import ShadowStack
from repro.cpu.state import CpuState
from repro.errors import CpuFault, PrivilegeFault, ShadowStackViolation
from repro.isa.semantics import (
    ADD, ADDI, ALU, BEQ, BGEU, BTB, CLFLUSH, CONTROL, HALT, JMP, JMPR, LI,
    LW, MASK32, MEMORY, MFENCE, MOV, NOP, PC_IMM, POP, RDCYCLE, RDINSTRET,
    RET, RS1_IMM, SLTU, SYSCALL, TAKEN, cost_table, decode_entry,
)
from repro.mem.tlb import Tlb
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from time import perf_counter
from repro.uarch.core import register_uarch
from repro.uarch.structures import ReorderBuffer, station

#: ``ooo.*`` telemetry, tallied in the core and flushed into the metrics
#: registry once per quantum.  Histogram values never exceed the ROB
#: depth, so each histogram tallies into a list indexed by value.
_HISTOGRAMS = ("ooo.spec.window", "ooo.rob.occupancy",
               "cpu.speculate.squashed")
_COUNTERS = ("ooo.squashes", "ooo.wrong_path_uops", "ooo.commit_stalls",
             "ooo.dispatch_stalls", "ooo.lsq_stalls")

#: The data-and-control arm's view of each op it takes, in one lookup:
#: its :data:`MEMORY` access (size 0 for ``jmpr``) and its
#: :data:`CONTROL` entry (``(0, None)`` for a data op).
_ACCESS = {op: MEMORY.get(op, (0, False, 0)) + CONTROL.get(op, (0, None))
           for op in (*MEMORY, JMPR)}

@dataclasses.dataclass(frozen=True)
class OooParams:
    """Out-of-order core knobs; each must be a positive int.

    ``rob_depth`` is the speculation budget: free ROB slots bound how
    far a mispredicted branch executes down the wrong path, the way
    ``CpuConfig.spec_window`` does for the in-order core.  The default
    matches that window so the two cores expose comparably-sized covert
    channels out of the box.
    """

    rob_depth: int = 48
    rs_alu: int = 8
    rs_mem: int = 6
    rs_branch: int = 4
    lsq_depth: int = 12
    commit_width: int = 4

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < 1):
                raise ValueError(f"OooParams.{field.name} must be a "
                                 f"positive int, got {value!r}")


class OooCore:
    """One simulated out-of-order hardware thread."""

    #: Same watchdog-charging contract as the in-order core.
    WATCHDOG_STRIDE = 1024
    #: The tracer this core's clock is registered with; ``None`` untraced.
    _tracer = None

    def __init__(self, memory, caches=None, predictor=None, config=None,
                 params=None):
        self.memory = memory
        self.caches = caches or CacheHierarchy()
        self.predictor = predictor or BranchPredictor()
        self.config = config or CpuConfig()
        self.params = params or OooParams()
        self.state = CpuState()
        self.dtlb = Tlb()
        self.itlb = Tlb()
        self.counters = direct_counters()
        self.op_counts = op_tally()
        self.cycles = 0.0
        self.shadow_stack = (ShadowStack() if self.config.shadow_stack
                             else None)
        self.kernel_mode = False
        self.syscall_handler = None
        self.watchdog = None
        self._decode_cache = {}
        self._base_cost = 1.0 / self.config.issue_width
        self._costs = cost_table(self.config)
        #: An ALU op's latency: one cycle plus its COST.
        self._op_latency = tuple(1.0 + cost for cost in self._costs)
        self._l1_latency = self.caches.config.l1_latency
        self._last_iline = -1
        self._last_ipage = -1
        # Self-modifying stores must not leave stale decode entries
        # behind; the dispatch loop itself stays untouched (no
        # superblocks on this core).
        memory.add_code_listener(self._on_code_write)

        # Tomasulo timing state.
        p = self.params
        self.rob = ReorderBuffer(p.rob_depth, p.lsq_depth)
        #: Reservation-station pools (heaps of the ``capacity`` largest
        #: completion times, see :func:`~repro.uarch.structures.station`)
        #: indexed by opcode; ``None`` for ops that take no station
        #: (nop, halt and the serialising ops).
        self._rs_pools = (station(p.rs_alu), station(p.rs_mem),
                          station(p.rs_branch))
        alu, mem, br = self._rs_pools
        self._rs_of = tuple(
            alu if ADD <= op <= MOV or op == RDINSTRET
            else mem if LW <= op <= POP
            else br if BEQ <= op <= RET
            else None
            for op in range(256)
        )
        #: Per-register result-ready times (values live in
        #: ``state.regs``).
        self._ready = [0.0] * len(self.state.regs)
        self._fetch_clock = 0.0
        self._inv_commit = 1.0 / p.commit_width
        self._seq = 0
        #: Tests may set this to a list to record ``(seq, pc)`` per
        #: commit and pin the in-order-commit invariant.
        self.commit_log = None

        tracer = current_tracer()
        if tracer.enabled:
            self._metrics = tracer.metrics
            self._hists = {name: [0] * (p.rob_depth + 1)
                           for name in _HISTOGRAMS}
            self._counts = dict.fromkeys(_COUNTERS, 0)
            self.trace_clk = tracer.register_clock(self._cycles_now)
            self._tracer = tracer
            self._tr_cpu = tracer.channel("cpu", self.trace_clk)
            self._tr_kernel = tracer.channel("kernel", self.trace_clk)
            self._tr_dispatch = tracer.channel("ooo.dispatch",
                                               self.trace_clk)
            self._tr_commit = tracer.channel("ooo.commit",
                                             self.trace_clk)
            self._tr_squash = tracer.channel("ooo.squash",
                                             self.trace_clk)
            self._tr_lsq = tracer.channel("ooo.lsq", self.trace_clk)
            cache_channel = tracer.channel("cache", self.trace_clk)
            if cache_channel is not None:
                self.caches.bind_tracer(cache_channel)
        else:
            self._metrics = None
            self.trace_clk = 0
            self._tr_cpu = None
            self._tr_kernel = None
            self._tr_dispatch = None
            self._tr_commit = None
            self._tr_squash = None
            self._tr_lsq = None
        self._l1i_hit = self.caches.l1i.hit_path()
        self._l1d_hit = self.caches.l1d.hit_path()
        # Profiler: bound once, like the tracer.  The OoO loop cannot be
        # single-stepped without serialising the ROB (that would change
        # the timing being measured), so an active profiler attaches a
        # read-only cursor inside run() instead of diverting to step().
        profiler = current_profiler()
        self._prof = (profiler if profiler.enabled
                      and profiler.config.active else None)

    @property
    def pmu(self):
        """A :class:`~repro.cpu.pmu.Pmu` reading view of ``counters``
        and ``op_counts``."""
        return Pmu(self)

    def _cycles_now(self):
        return int(self.cycles)

    def __del__(self):
        # As Cpu.__del__: the tracer keeps the final clock reading.
        if self._tracer is not None:
            self._tracer.retire_clock(self.trace_clk, int(self.cycles))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def reset_for_exec(self):
        """Flush decode/translation + pipeline state after ``execve``."""
        self._decode_cache.clear()
        self._last_iline = -1
        self._last_ipage = -1
        self.dtlb.flush()
        self.itlb.flush()
        if self.shadow_stack is not None:
            self.shadow_stack.reset()
        self.predictor.rsb.reset()
        self.rob.drain()
        for pool in self._rs_pools:
            pool[:] = station(len(pool))
        self._ready = [self.cycles] * len(self._ready)

    def _on_code_write(self, address, size):
        """A store reached an executable segment: decode cache is stale."""
        self._decode_cache.clear()

    def _flush_metrics(self):
        """Fold the quantum's telemetry tallies into the registry."""
        metrics = self._metrics
        for name, tally in self._hists.items():
            for value, count in enumerate(tally):
                if count:
                    metrics.observe(name, value, count)
                    tally[value] = 0
        counts = self._counts
        for name, count in counts.items():
            if count:
                metrics.inc(name, count)
                counts[name] = 0

    def _fold(self, taken, cond, miss, i_hits, d_reads, d_writes,
              dtlb_hits):
        """Fold the dispatch loop's batched tallies into the PMU, the
        predictor, the L1 stats and the D-TLB: *taken* branches, *cond*
        BHT predictions and *miss* BHT mispredictions, and the inlined
        hits."""
        self.counters["branches_taken"] += taken
        self.predictor.conditional_predictions += cond
        self.predictor.conditional_mispredictions += miss
        self.dtlb.hits += dtlb_hits
        self.caches.l1i.stats.count_hits(i_hits)
        self.caches.l1d.stats.count_hits(d_reads, d_writes)

    # ------------------------------------------------------------------
    # commit clock (the dispatch loop inlines allocation)
    # ------------------------------------------------------------------
    def _sync_clock(self, retire):
        """Write the commit clock at threshold *retire* to
        ``self.cycles``, the clock recovery and the trace read."""
        rob = self.rob
        rob.retired = retire
        self.cycles = rob.committed()

    def _drain(self):
        """Retire the whole ROB (quantum boundary, fault, serialise)."""
        self.cycles = self.rob.drain()

    def _stall(self, now, index, pc, lsq):
        """Dispatch at *now* waits for ROB entry *index* to commit: the
        slot a full ROB frees, or with *lsq* the memory entry a full
        load/store queue frees.  Returns that commit time."""
        rob = self.rob
        commit, stalls = rob.wait(now, index)
        if self._metrics is not None:
            rob.retired = now
            if lsq:
                self._counts["ooo.lsq_stalls"] += stalls
                trace, args = self._tr_lsq, {"pc": pc}
            else:
                self._counts["ooo.dispatch_stalls"] += stalls
                trace, args = self._tr_dispatch, {"pc": pc, "rob": len(rob)}
            if trace is not None:
                self.cycles = rob.committed()
                ts0 = trace.now()
                self.cycles = commit
                trace.complete("ooo.lsq.stall" if lsq
                               else "ooo.dispatch.stall", ts0, **args)
        return commit

    def _serialize(self, fclock, retire, extra):
        """Drain, then retire a serialising op; returns the new fetch
        clock (== ``self.cycles``: the machine is momentarily in-order).
        """
        rob = self.rob
        rob.retired = retire
        if self._metrics is not None and rob:
            # Commit-stall bookkeeping: a serialising op forces the
            # whole ROB to retire before it may even dispatch.
            occupancy = len(rob)
            self._counts["ooo.commit_stalls"] += 1
            self._hists["ooo.rob.occupancy"][occupancy] += 1
            trace = self._tr_commit
            if trace is not None:
                self.cycles = rob.committed()
                ts0 = trace.now()
                self._drain()
                trace.complete("ooo.commit.drain", ts0, rob=occupancy)
            else:
                self._drain()
        else:
            self._drain()
        t = self.cycles
        if fclock > t:
            t = fclock
        t += extra
        self.cycles = rob.base = t
        return t

    def _data_access(self, address, is_write, retire):
        """A data access through the hierarchy (an L1D hit the loop did
        not inline, or a miss); returns its latency and charges the
        cycles past an L1 hit as memory stall."""
        if self._metrics is not None:
            self._sync_clock(retire)
        latency = self.caches.data_access_fast(address, is_write)[0]
        extra = latency - self._l1_latency
        if extra > 0:
            self.counters["memory_stall_cycles"] += extra
        return latency

    # ------------------------------------------------------------------
    # misprediction recovery + wrong-path execution
    # ------------------------------------------------------------------
    def _recover(self, pc, wrong_path_pc, resolve_time, fclock, seq):
        """Mispredict: transient wrong path, squash, redirect fetch.

        Returns the redirected fetch clock and *seq* advanced past the
        wrong-path uops (they consume sequence numbers too).
        """
        trace = self._tr_cpu
        ts0 = trace.now() if trace is not None else 0
        squash_trace = self._tr_squash
        sq_ts0 = squash_trace.now() if squash_trace is not None else 0
        penalty = self.config.mispredict_penalty
        self.counters["mispredict_penalty_cycles"] += int(penalty)
        if fclock < resolve_time:
            fclock = resolve_time
        fclock += penalty
        if wrong_path_pc is not None:
            window = self.rob.free_slots()
            executed = (speculate(self, wrong_path_pc, window)
                        if window > 0 else 0)
            seq += executed
            if self._metrics is not None:
                # Speculation-window depth: how many ROB slots the
                # wrong path may fill before the squash bounds it.
                hists = self._hists
                hists["ooo.spec.window"][window] += 1
                hists["ooo.rob.occupancy"][len(self.rob)] += 1
                self._counts["ooo.squashes"] += 1
                self._counts["ooo.wrong_path_uops"] += executed
            if trace is not None:
                trace.complete("cpu.speculate", ts0, pc=pc,
                               target=wrong_path_pc, squashed=executed)
                self._hists["cpu.speculate.squashed"][executed] += 1
            if squash_trace is not None:
                squash_trace.complete("ooo.squash", sq_ts0, pc=pc,
                                      target=wrong_path_pc,
                                      uops=executed)
        elif trace is not None:
            trace.event("cpu.mispredict", pc=pc)
        return fclock, seq

    # ------------------------------------------------------------------
    # architectural execution
    # ------------------------------------------------------------------
    def step(self):
        """Retire one architectural instruction; ``False`` on halt."""
        if self.state.halted:
            return False
        self.run(max_instructions=1)
        return not self.state.halted

    def run(self, max_instructions=None):
        """Dispatch until halt (or budget); returns retired count.

        One loop serves traced and untraced runs.  Each entry's commit
        time is fixed as it allocates, so nothing retires per
        instruction: the loop keeps the last commit time and the
        dispatch-side *retire* threshold (every entry committed by then
        has left), and ``self.cycles`` is written from them only where
        it is read — before recovery (wrong-path ``rdcycle``), at
        drains, and when tracing, before any call that may emit a
        record.  Each dispatched op bumps the core's retire tally
        (``op_counts``) as it is fetched; the taken-branch, predictor and
        inlined-hit tallies live in locals, folded in before the syscall
        handler and on exit.
        All observable state is synchronised — and the ROB drained — on
        every exit path, including faults (precise exceptions: older
        work commits, the faulting instruction never allocates).
        """
        state = self.state
        if state.halted:
            return 0
        config = self.config
        counters = self.counters
        tally = self.op_counts
        predictor = self.predictor
        memory = self.memory
        caches = self.caches
        rob = self.rob
        times = rob.times
        times_append = times.append
        lsq = rob.mem
        lsq_append = lsq.append
        rob_depth = rob.depth
        lsq_depth = rob.lsq_depth
        inv_commit = self._inv_commit
        log = self.commit_log
        mem_pool = self._rs_pools[1]
        dcache = self._decode_cache
        dcache_get = dcache.get
        rs_of = self._rs_of
        load_word = memory.load_word
        load_byte = memory.load_byte
        store_word = memory.store_word
        store_byte = memory.store_byte
        dtlb = self.dtlb
        dtlb_access = dtlb.access
        itlb_access = self.itlb.access
        icache_fast = caches.instruction_access_fast
        # Fetch locality is per L1I line, whether or not its hit arm
        # is inlined.
        i_shift = caches.l1i._line_shift
        _, i_mask, i_ishift, i_maps, i_clocks, i_stamps, _ = self._l1i_hit
        (d_shift, d_mask, d_ishift, d_maps, d_clocks, d_stamps,
         d_dirty) = self._l1d_hit
        bht = predictor.bht._counters
        bht_mask = predictor.bht._mask
        predict_indirect = predictor.predict_indirect
        resolve_indirect = predictor.resolve_indirect
        on_call = predictor.on_call
        shadow = self.shadow_stack
        base_cost = self._base_cost
        l1_latency = self._l1_latency
        costs = self._costs
        op_latency = self._op_latency
        btb_miss_penalty = config.btb_miss_penalty
        clflush_privileged = config.clflush_privileged
        watchdog = self.watchdog
        stride = self.WATCHDOG_STRIDE
        limit = -1 if max_instructions is None else max_instructions
        traced = self._metrics is not None
        # Profiling cursor: read-only sequential accounting.  One
        # ``is not None`` guard per instruction (the tr_dispatch idiom);
        # cost attribution is by dispatch-clock progression, with the
        # final instruction closed against the committed clock so
        # ROB-drain cycles land where they were caused.
        cursor = self._prof.cursor() if self._prof is not None else None
        run_wall0 = perf_counter() if cursor is not None else 0.0

        regs = state.regs
        ready = self._ready
        pc = state.pc
        fclock = self._fetch_clock
        last_iline = self._last_iline
        last_ipage = self._last_ipage
        # The ROB is empty between run() calls: the next commit time
        # follows the commit clock.
        last = rob.base = self.cycles
        retire = fclock
        # ``seq + executed`` is the current instruction's sequence
        # number; recovery advances ``seq`` past wrong-path uops.
        seq = self._seq - 1
        executed = 0
        mispredict = False
        wrong_path = None
        # Batched tallies (see _fold): taken branches, BHT predictions
        # and mispredictions, inlined L1 / D-TLB hits.
        n_taken = n_cond = n_miss = i_hits = d_reads = d_writes = 0
        dtlb_hits = 0

        try:
            while not state.halted:
                if executed == limit:
                    break

                entry = dcache_get(pc)
                if entry is None:
                    entry = dcache[pc] = decode_entry(memory, pc)
                    if cursor is not None:
                        cursor.decode_miss()
                line = pc >> i_shift
                if line != last_iline:
                    last_iline = line
                    index = line & i_mask
                    way = i_maps[index].get(line >> i_ishift)
                    if way is None:
                        if traced:
                            self._sync_clock(retire)
                        extra = icache_fast(pc)[0] - l1_latency
                        if extra > 0:
                            fclock += extra
                            counters["memory_stall_cycles"] += extra
                    else:
                        clock = i_clocks[index] + 1
                        i_clocks[index] = clock
                        i_stamps[index][way] = clock
                        i_hits += 1
                    # Pages are whole lines: only a new line can start
                    # a new page.
                    page = pc >> 12
                    if page != last_ipage:
                        last_ipage = page
                        itlb_access(pc)

                op, rd, rs1, rs2, imm, next_pc = entry
                pool = rs_of[op]
                tally[op] += 1
                executed += 1
                if cursor is not None:
                    # Finalises the *previous* instruction with this
                    # one's fetch clock; this one stays pending.
                    cursor.note(pc, op, fclock,
                                counters["memory_stall_cycles"],
                                counters["mispredict_penalty_cycles"])

                # Dispatch: stall on a full ROB; every entry committed
                # by then has left (the retire threshold).  Then stall
                # on a full station (its earliest of the ``capacity``
                # latest completions) or a full LSQ.
                dispatch = fclock
                if times[-rob_depth] > dispatch:
                    dispatch = self._stall(dispatch, len(times) - rob_depth,
                                           pc, False)
                retire = dispatch
                if pool is None:
                    fclock = dispatch + base_cost
                    if op == NOP:
                        last = max(last + inv_commit, dispatch)
                        times_append(last)
                        if log is not None:
                            log.append((seq + executed, pc))
                    elif op == HALT:
                        state.halted = True
                        next_pc = pc
                    else:
                        # rdcycle, mfence, clflush and syscall serialise:
                        # drain, then retire after the op's COST.
                        cost = costs[op]
                        if op == CLFLUSH:
                            if clflush_privileged and not self.kernel_mode:
                                raise PrivilegeFault(
                                    "clflush is disabled for non-privileged "
                                    "code (countermeasure active)"
                                )
                            if traced:
                                self._sync_clock(retire)
                            caches.flush_line((regs[rs1] + imm) & MASK32)
                        fclock = last = self._serialize(fclock, retire, cost)
                        if op == RDCYCLE:
                            if rd:
                                regs[rd] = int(fclock) & MASK32
                                ready[rd] = fclock
                        elif op == MFENCE:
                            counters["fence_stall_cycles"] += int(cost)
                        elif op == SYSCALL:
                            handler = self.syscall_handler
                            if handler is None:
                                raise CpuFault(
                                    f"syscall at {pc:#010x} with no handler"
                                )
                            # Sync the architectural state the handler
                            # sees — then reload everything it may have
                            # changed (``execve`` remaps memory, resets
                            # the pipeline and installs a *new* regs
                            # list).
                            pc = next_pc
                            state.pc = pc
                            self._fetch_clock = fclock
                            self._last_iline = last_iline
                            self._last_ipage = last_ipage
                            self._fold(n_taken, n_cond, n_miss, i_hits,
                                       d_reads, d_writes, dtlb_hits)
                            n_taken = n_cond = n_miss = i_hits = 0
                            d_reads = d_writes = dtlb_hits = 0
                            handler(self)
                            regs = state.regs
                            ready = self._ready
                            pc = state.pc
                            fclock = self._fetch_clock
                            if fclock < self.cycles:
                                fclock = self.cycles
                            last_iline = self._last_iline
                            last_ipage = self._last_ipage
                            if (watchdog is not None
                                    and executed % stride == 0):
                                watchdog.charge(stride)
                            continue
                else:
                    t = pool[0]
                    if t > dispatch:
                        dispatch = t
                    if pool is mem_pool:
                        if times[lsq[-lsq_depth]] > retire:
                            retire = self._stall(retire, lsq[-lsq_depth],
                                                 pc, True)
                            if retire > dispatch:
                                dispatch = retire
                        # The index this entry allocates at.
                        lsq_append(len(times))
                    fclock = dispatch + base_cost

                    if ADDI <= op <= MOV:
                        # li reads no register; the others wait for rs1.
                        start = dispatch
                        if op != LI:
                            t = ready[rs1]
                            if t > start:
                                start = t
                        done = start + op_latency[op]
                        if rd:
                            regs[rd] = ALU[op](regs[rs1], imm)
                            ready[rd] = done
                    elif BEQ <= op <= BGEU:
                        n_cond += 1
                        a = regs[rs1]
                        b = regs[rs2]
                        start = dispatch
                        t = ready[rs1]
                        if t > start:
                            start = t
                        t = ready[rs2]
                        if t > start:
                            start = t
                        done = start + 1.0
                        # The 2-bit BHT counter, predicted and trained
                        # as BranchHistoryTable does: predicted taken
                        # at 2 (weakly taken) and up, saturating at 0
                        # and 3.
                        index = (pc >> 3) & bht_mask
                        counter = bht[index]
                        if TAKEN[op](a, b):
                            n_taken += 1
                            if counter < 3:
                                bht[index] = counter + 1
                            if counter < 2:
                                n_miss += 1
                                mispredict = True
                                wrong_path = next_pc
                            next_pc = (pc + imm) & MASK32
                        else:
                            if counter:
                                bht[index] = counter - 1
                            if counter > 1:
                                n_miss += 1
                                mispredict = True
                                wrong_path = (pc + imm) & MASK32
                    elif op == JMP:
                        done = dispatch
                        next_pc = (pc + imm) & MASK32
                    elif ADD <= op <= SLTU:
                        start = dispatch
                        t = ready[rs1]
                        if t > start:
                            start = t
                        t = ready[rs2]
                        if t > start:
                            start = t
                        done = start + op_latency[op]
                        if rd:
                            regs[rd] = ALU[op](regs[rs1], regs[rs2])
                            ready[rd] = done
                    elif LW <= op <= POP or JMPR <= op <= RET:
                        # The one data-and-control arm, in CONTROL's
                        # order: a transfer's target and a BTB op's
                        # lookup first; then MEMORY[op]'s access, with
                        # the D-TLB MRU page and the L1D hit arm inline
                        # and only a miss through the hierarchy; then
                        # the RSB; and last the BTB-miss penalty.
                        size, write, sp, form, kind = _ACCESS[op]
                        start = dispatch
                        if form == RS1_IMM:
                            t = ready[rs1]
                            if t > start:
                                start = t
                            target = (regs[rs1] + imm) & MASK32
                            wrong_path = predict_indirect(pc)
                            mispredict = resolve_indirect(pc, wrong_path,
                                                          target)
                        elif form == PC_IMM:
                            target = (pc + imm) & MASK32
                        if size:
                            if sp:
                                t = ready[13]
                                if t > start:
                                    start = t
                                address = regs[13]
                                if sp < 0:
                                    address = regs[13] = (address - 4) & MASK32
                            else:
                                t = ready[rs1]
                                if t > start:
                                    start = t
                                address = (regs[rs1] + imm) & MASK32
                            if write:
                                value = next_pc  # a call's return address
                                if not form:
                                    data = rs1 if sp else rs2
                                    t = ready[data]
                                    if t > start:
                                        start = t
                                    value = regs[data]
                                if size == 4:
                                    store_word(address, value)
                                else:
                                    store_byte(address, value)
                            elif size == 4:
                                value = load_word(address)
                            else:
                                value = load_byte(address)
                            if address >> 12 == dtlb._last_page:
                                dtlb_hits += 1
                            else:
                                dtlb_access(address)
                            line = address >> d_shift
                            index = line & d_mask
                            way = d_maps[index].get(line >> d_ishift)
                            if way is None:
                                latency = self._data_access(address, write,
                                                            retire)
                            else:
                                clock = d_clocks[index] + 1
                                d_clocks[index] = clock
                                d_stamps[index][way] = clock
                                if write:
                                    d_dirty[index][way] = True
                                    d_writes += 1
                                else:
                                    d_reads += 1
                                latency = l1_latency
                            if write:
                                # Stores retire from the store queue off
                                # the critical path: their miss latency
                                # is not serialised into the chain.
                                done = start + 1.0
                            else:
                                done = start + latency
                            if sp:
                                if sp > 0:
                                    regs[13] = (address + 4) & MASK32
                                ready[13] = done
                            if not form:
                                if not write and rd:
                                    regs[rd] = value & MASK32
                                    ready[rd] = done
                            elif write:
                                on_call(next_pc)
                                if shadow is not None:
                                    shadow.on_call(next_pc)
                            else:
                                target = value
                                if shadow is not None:
                                    try:
                                        shadow.on_return(target)
                                    except ShadowStackViolation:
                                        if self._tr_cpu is not None:
                                            self._sync_clock(retire)
                                            self._tr_cpu.event(
                                                "cpu.shadow_divergence",
                                                pc=pc, target=target,
                                            )
                                        raise
                                wrong_path = predictor.predict_return()
                                mispredict = predictor.resolve_return(
                                    wrong_path, target)
                        else:
                            done = start + 1.0
                        if form:
                            if kind == BTB and wrong_path is None:
                                mispredict = False
                                if fclock < done:
                                    fclock = done
                                fclock += btb_miss_penalty
                            next_pc = target
                    elif op == RDINSTRET:
                        done = dispatch + 1.0
                        if rd:
                            regs[rd] = sum(tally) & MASK32
                            ready[rd] = done
                    else:  # pragma: no cover - every opcode handled
                        raise CpuFault(
                            f"unhandled opcode {op:#04x} at {pc:#010x}"
                        )

                    # Allocate: the station entry, then the ROB entry,
                    # whose commit time the commit port fixes now.
                    heappushpop(pool, done)
                    last += inv_commit
                    if done > last:
                        last = done
                    times_append(last)
                    if log is not None:
                        log.append((seq + executed, pc))
                    if mispredict:
                        mispredict = False
                        self._sync_clock(retire)
                        fclock, seq = self._recover(pc, wrong_path, done,
                                                    fclock, seq)

                pc = next_pc
                if watchdog is not None and executed % stride == 0:
                    watchdog.charge(stride)
        finally:
            # Every exit path — normal, halt, budget exhaustion, CPU or
            # memory fault — drains the ROB (older work commits; the
            # faulting instruction never allocated) and leaves every
            # observable in the object.
            state.pc = pc
            self._fetch_clock = fclock
            self._last_iline = last_iline
            self._last_ipage = last_ipage
            self._seq = seq + executed + 1
            self._fold(n_taken, n_cond, n_miss, i_hits, d_reads, d_writes,
                       dtlb_hits)
            if self._metrics is not None:
                # One ROB-occupancy sample per quantum (pre-drain) plus
                # the quantum's tallies.
                rob.retired = retire
                self._hists["ooo.rob.occupancy"][len(rob)] += 1
                self._flush_metrics()
            self._drain()
            if cursor is not None:
                final = self.cycles if self.cycles > fclock else fclock
                cursor.finish(final,
                              counters["memory_stall_cycles"],
                              counters["mispredict_penalty_cycles"])
                self._prof.add_wall("execute",
                                    perf_counter() - run_wall0)

        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed


register_uarch("ooo", OooCore)
