"""The speculative CPU: an interpreter with a bounded wrong-path window.

Execution model
---------------
Instructions commit in order.  Control transfers consult the branch
predictor (BHT / BTB / RSB); on a misprediction the CPU first executes up
to ``spec_window`` *wrong-path* instructions starting at the predicted
target.  Wrong-path execution works on a shadow register file and a store
buffer, so architectural state is squashed afterwards — but instruction
and data fetches performed on the wrong path still fill the caches and
TLBs.  That persistence is precisely the Spectre channel the paper (and
Kocher et al.) exploit, so it is modelled faithfully rather than faked.

Timing model
------------
A width-``issue_width`` superscalar is approximated by charging
``1/issue_width`` cycles per simple instruction, plus real penalties for
memory-hierarchy misses, branch mispredictions, fences, and long-latency
arithmetic.  ``rdcycle`` exposes the cycle counter to software, which is
what the covert channel's flush+reload timer reads.

Interpreter layout
------------------
The decode cache stores the flat six-field entries of
:func:`repro.isa.semantics.decode_entry`, ``(op, rd, rs1, rs2, imm,
next_pc)``, with *op* a plain int and *next_pc* the fall-through pc,
so dispatch compares ints and operand access is index-based — no
dataclass or enum traffic per retired instruction.  The out-of-order
core caches the same entries.  ALU results and branch directions come
from the shared ``ALU``/``TAKEN`` tables of :mod:`repro.isa.semantics`.
:meth:`Cpu.step` is the one interpreter of the committed path.
:meth:`Cpu.run` dispatches hot straight-line code to compiled
superblocks (:mod:`repro.cpu.superblock`) and everything else to
step(); the closures are bit-exact with step() — the differential
tests in ``tests/cpu/`` pin that.  Traced, profiled and ``--engine
step`` runs take the step() loop throughout (trace events must observe
``self.cycles`` live, and profiling attributes per instruction).
"""

import dataclasses

from repro.branch.predictor import BranchPredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.engine import engine_mode
from repro.cpu.pmu import Pmu, direct_counters, op_tally
from repro.cpu.shadow_stack import ShadowStack
from repro.cpu.state import CpuState
from repro.errors import (
    CpuFault,
    MemoryFault,
    PrivilegeFault,
    ShadowStackViolation,
)
from repro.cpu.superblock import SuperblockEngine
from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.semantics import (
    ADD, ADDI, ALU, BEQ, BGEU, CALL, CALLR, CLFLUSH, HALT, JMP, JMPR,
    LW, MASK32, MEMORY, MFENCE, MOD, MOV, MUL, MULI, NOP, POP, PUSH,
    RDCYCLE, RDINSTRET, RET, SLTU, SYSCALL, TAKEN, WRONG_PATH, decode_entry,
)
from repro.mem.tlb import Tlb
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from time import perf_counter

@dataclasses.dataclass(frozen=True)
class CpuConfig:
    """Microarchitectural knobs.

    ``shadow_stack`` and ``clflush_privileged`` implement two of the
    paper's Section-IV countermeasures.
    """

    issue_width: int = 4
    spec_window: int = 48
    mispredict_penalty: float = 14.0
    btb_miss_penalty: float = 8.0
    mul_extra: float = 1.0
    div_extra: float = 3.0
    fence_latency: float = 8.0
    clflush_latency: float = 6.0
    syscall_latency: float = 40.0
    shadow_stack: bool = False
    clflush_privileged: bool = False
    #: InvisiSpec-style defense (Yan et al., MICRO'18; discussed by the
    #: paper): wrong-path loads are serviced from an invisible buffer
    #: and never fill the caches, so a squash leaves no trace — the
    #: covert channel's transmit side goes dark.
    invisible_speculation: bool = False


#: The walk's view of each memory op: its :data:`MEMORY` access, then
#: its :data:`WRONG_PATH` departures, in one lookup.
_WALK_ACCESS = {op: MEMORY[op] + WRONG_PATH[op] for op in MEMORY}


def speculate(core, start_pc, budget):
    """Execute up to *budget* wrong-path instructions of *core* from
    *start_pc*; only cache/TLB fills persist.  Returns the count.

    The one wrong-path walk of both cores.  The in-order
    :class:`Cpu` passes its ``spec_window``; the out-of-order core
    passes its ROB's free slots.  Both cores cache the same
    :func:`~repro.isa.semantics.decode_entry` entries, and a decode
    miss fills the core's cache as a committed fetch would; an
    undecodable or unmapped pc ends the walk.  Values come from the
    same ``ALU``/``TAKEN`` tables the committed path uses.  The walk
    runs on a copy of the registers, so the squash has nothing to
    restore.

    Every data-memory op takes one arm: its access is
    :data:`~repro.isa.semantics.MEMORY`'s entry, and
    :data:`~repro.isa.semantics.WRONG_PATH` names where the walk departs
    from the committed path (docs/MICROARCH.md, "Wrong-path memory
    model").

    This walk dominates wall time on mispredict-heavy workloads, so
    — like the superblock closures — it inlines the L1I/L1D LRU hit
    paths (bound through :meth:`~repro.cache.cache.Cache.hit_path`)
    and the TLB MRU shortcut, and batches the commutative
    integer tallies (PMU ``spec_*`` counters, cache/TLB hit
    statistics) into locals flushed once at squash.  Every *stateful*
    mutation (LRU clocks and stamps, dirty bits, miss-path fills,
    replacement) still happens on the live objects in exact program
    order — the cache disturbance *is* the Spectre side channel, so
    only counts that commute may be deferred.
    """
    regs = core.state.copy_regs()
    store_buffer = {}
    counters = core.counters
    memory = core.memory
    load_word = memory.load_word
    load_byte = memory.load_byte
    dcache = core._decode_cache
    caches = core.caches
    data_fast = caches.data_access_fast
    icache_fast = caches.instruction_access_fast
    dtlb = core.dtlb
    itlb = core.itlb
    dtlb_access = dtlb.access
    itlb_access = itlb.access
    invisible = core.config.invisible_speculation
    ii_shift, ii_mask, ii_ishift, ii_maps, ii_clocks, ii_stamps, _ = \
        caches.l1i.hit_path()
    dd_shift, dd_mask, dd_ishift, dd_maps, dd_clocks, dd_stamps, dd_dirty = \
        caches.l1d.hit_path()
    itlb_last = itlb._last_page
    dtlb_last = dtlb._last_page
    n_loads = n_fills = 0
    n_ihit = n_itlb = n_dtlb = n_dhit_r = n_dhit_w = 0
    #: last I-line probed with a hit — sequential fetches in the
    #: same line skip the set/tag recompute and the dict probe and
    #: go straight to the (mandatory, per-access) LRU bump.
    ii_last_ln = -1
    ii_last_si = ii_last_way = 0
    pc = start_pc
    executed = 0

    for _ in range(budget):
        entry = dcache.get(pc)
        if entry is None:
            try:
                entry = dcache[pc] = decode_entry(memory, pc)
            except (MemoryFault, CpuFault):
                break
        # Wrong-path fetch fills the I-cache / ITLB too.
        ln = pc >> ii_shift
        if ln == ii_last_ln:
            si = ii_last_si
            clock = ii_clocks[si] + 1
            ii_clocks[si] = clock
            ii_stamps[si][ii_last_way] = clock
            n_ihit += 1
        else:
            si = ln & ii_mask
            way = ii_maps[si].get(ln >> ii_ishift)
            if way is not None:
                clock = ii_clocks[si] + 1
                ii_clocks[si] = clock
                ii_stamps[si][way] = clock
                n_ihit += 1
                ii_last_ln = ln
                ii_last_si = si
                ii_last_way = way
            else:
                icache_fast(pc)
                ii_last_ln = -1
        page = pc >> 12
        if page == itlb_last:
            n_itlb += 1
        else:
            itlb_access(pc)
            itlb_last = page

        executed += 1
        op, rd, rs1, rs2, imm, next_pc = entry

        # ALU ranges lead the dispatch (they dominate wrong-path mixes).
        if ADD <= op <= SLTU:
            if rd != 0:
                regs[rd] = ALU[op](regs[rs1], regs[rs2])
        elif ADDI <= op <= MOV:
            if rd != 0:
                regs[rd] = ALU[op](regs[rs1], imm)
        elif LW <= op <= POP or CALL <= op <= RET:
            # The one data access: MEMORY[op] says what it is, and
            # WRONG_PATH[op] how the walk departs from the committed
            # path.  Stores only reach the store buffer.
            size, write, sp, to_dtlb, to_l1d, load = _WALK_ACCESS[op]
            if sp < 0:
                address = regs[13] = (regs[13] - 4) & MASK32
            elif sp:
                address = regs[13]
            else:
                address = (regs[rs1] + imm) & MASK32
            faulted = False
            if write:
                value = (next_pc if op >= CALL else regs[rs1] if sp
                         else regs[rs2])
                store_buffer[(address, size)] = (value if size == 4
                                                 else value & 0xFF)
            else:
                value = store_buffer.get((address, size))
            if value is None:
                try:
                    if size == 4:
                        value = load_word(address)
                    else:
                        value = load_byte(address)
                except MemoryFault:
                    # Faulting wrong-path accesses are suppressed.  A
                    # load fills the caches first, as on real hardware
                    # with a physically-mapped probe array.
                    if not load:
                        break
                    faulted = True
            if load:
                n_loads += 1
                if invisible:
                    # Serviced from the speculative buffer: data flows
                    # to the wrong path, but no cache line is installed.
                    to_dtlb = to_l1d = False
            if to_dtlb:
                page = address >> 12
                if page == dtlb_last:
                    n_dtlb += 1
                else:
                    dtlb_access(address)
                    dtlb_last = page
            if to_l1d:
                ln = address >> dd_shift
                si = ln & dd_mask
                way = dd_maps[si].get(ln >> dd_ishift)
                if way is None:
                    if data_fast(address, write)[1] == 3 and load:
                        n_fills += 1
                else:
                    clock = dd_clocks[si] + 1
                    dd_clocks[si] = clock
                    dd_stamps[si][way] = clock
                    if write:
                        dd_dirty[si][way] = True
                        n_dhit_w += 1
                    else:
                        n_dhit_r += 1
            if faulted:
                break
            if sp > 0:
                regs[13] = (address + 4) & MASK32
            if op < CALL:
                if not write and rd != 0:
                    regs[rd] = value & MASK32
            elif op == RET:
                next_pc = value & MASK32
            elif op == CALL:
                next_pc = (pc + imm) & MASK32
            else:
                next_pc = (regs[rs1] + imm) & MASK32
        elif BEQ <= op <= BGEU:
            # Nested branches resolve immediately on the wrong path.
            if TAKEN[op](regs[rs1], regs[rs2]):
                next_pc = (pc + imm) & MASK32
        elif op == JMP:
            next_pc = (pc + imm) & MASK32
        elif op == JMPR:
            next_pc = (regs[rs1] + imm) & MASK32
        elif op == RDCYCLE:
            if rd != 0:
                regs[rd] = int(core.cycles) & MASK32
        elif op == RDINSTRET:
            if rd != 0:
                regs[rd] = sum(core.op_counts) & MASK32
        elif op == NOP:
            pass
        else:
            # HALT, SYSCALL, MFENCE, CLFLUSH: serialising — wrong-path
            # execution stops here (clflush is never speculated).
            break
        pc = next_pc

    # Batched tallies (all plain integer adds, so deferring them
    # to squash time is exact).
    if executed:
        counters["spec_instructions"] += executed
    if n_loads:
        counters["spec_loads"] += n_loads
    if n_fills:
        counters["spec_cache_fills"] += n_fills
    caches.l1i.stats.count_hits(n_ihit)
    caches.l1d.stats.count_hits(n_dhit_r, n_dhit_w)
    if n_itlb:
        itlb.hits += n_itlb
    if n_dtlb:
        dtlb.hits += n_dtlb
    counters["squashed_instructions"] += executed
    return executed


class Cpu:
    """One simulated hardware thread."""

    #: The tracer this core's clock is registered with; ``None`` untraced.
    _tracer = None

    def __init__(self, memory, caches=None, predictor=None, config=None):
        self.memory = memory
        self.caches = caches or CacheHierarchy()
        self.predictor = predictor or BranchPredictor()
        self.config = config or CpuConfig()
        self.state = CpuState()
        self.dtlb = Tlb()
        self.itlb = Tlb()
        self.counters = direct_counters()
        self.op_counts = op_tally()
        self.cycles = 0.0
        self.shadow_stack = ShadowStack() if self.config.shadow_stack else None
        self.kernel_mode = False
        self.syscall_handler = None
        #: optional instruction-budget guard (duck-typed: needs .charge);
        #: see :class:`repro.core.resilience.watchdog.Watchdog`
        self.watchdog = None
        self._decode_cache = {}
        self._base_cost = 1.0 / self.config.issue_width
        self._l1_latency = self.caches.config.l1_latency
        self._iline_shift = self.caches.l1i._line_shift
        self._last_iline = -1
        self._last_ipage = -1
        # Engine selection binds once, like the tracer/profiler below:
        # "sb" (default) builds the superblock engine lazily on the
        # first untraced run(); "step" never does.  The mode is
        # ambient and non-architectural — it never enters manifests.
        self._engine = engine_mode()
        self._sb = None
        # Stores into executable segments (self-modifying code) must
        # drop stale decode entries and compiled superblocks before the
        # next fetch.  W^X layouts never trigger this.
        memory.add_code_listener(self._on_code_write)
        # Tracing: channels bind once, here; every emission site below
        # guards with ``is not None`` and all of those sites sit on cold
        # sub-paths (mispredict, violation), so the disabled default
        # adds nothing to the hot step loop.
        tracer = current_tracer()
        if tracer.enabled:
            self.trace_clk = tracer.register_clock(self._cycles_now)
            self._tracer = tracer
            self._tr_cpu = tracer.channel("cpu", self.trace_clk)
            self._tr_kernel = tracer.channel("kernel", self.trace_clk)
            cache_channel = tracer.channel("cache", self.trace_clk)
            if cache_channel is not None:
                self.caches.bind_tracer(cache_channel)
            # A tracer whose filter excludes every CPU-side category
            # binds no channels here; nothing inside the run loop can
            # emit, so the superblock dispatcher is observationally
            # identical and the step loop would be pure overhead.  This
            # is what keeps fully-filtered tracing within the disabled-
            # overhead budget BENCH_obs.json gates.
            self._step_trace = (self._tr_cpu is not None
                                or self._tr_kernel is not None
                                or cache_channel is not None)
        else:
            self.trace_clk = 0
            self._tr_cpu = None
            self._tr_kernel = None
            self._step_trace = False
        # Profiling binds the same way: resolved once here, and only an
        # enabled *and active* profiler diverts run() off the superblock
        # dispatcher.  The disabled default (and the fully-filtered
        # config) leaves self._prof None, so run() is untouched.
        profiler = current_profiler()
        self._prof = (profiler if profiler.enabled
                      and profiler.config.active else None)

    @property
    def pmu(self):
        """A :class:`~repro.cpu.pmu.Pmu` reading view of ``counters``
        and ``op_counts``."""
        return Pmu(self)

    def _cycles_now(self):
        """This CPU's virtual clock, as read by its trace channels."""
        return int(self.cycles)

    def __del__(self):
        # The tracer holds the clock weakly: hand it the final reading,
        # which its ``cpu.cycles`` gauge still sums.
        if self._tracer is not None:
            self._tracer.retire_clock(self.trace_clk, int(self.cycles))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def reset_for_exec(self):
        """Flush decode/translation state after ``execve`` remaps memory."""
        self._decode_cache.clear()
        if self._sb is not None:
            self._sb.flush()
        self._last_iline = -1
        self._last_ipage = -1
        self.dtlb.flush()
        self.itlb.flush()
        if self.shadow_stack is not None:
            self.shadow_stack.reset()
        self.predictor.rsb.reset()

    def _on_code_write(self, address, size):
        """Memory store landed in an executable segment (SMC).

        Invalidate everything derived from the old bytes: the decode
        cache wholesale (self-modifying code is rare enough that
        precision is not worth the bookkeeping) and every compiled
        superblock.  A closure that is *currently executing* notices
        the generation bump at its next store and deoptimises.
        """
        self._decode_cache.clear()
        if self._sb is not None:
            self._sb.on_code_write(address, size)

    def _flush_code_line(self, address):
        """``clflush`` hit a line inside an executable segment.

        Architecturally a no-op (decode is a pure function of the
        bytes, which clflush does not change), but the decode entries
        and superblocks covering the line are dropped anyway so the
        translation caches track the modelled I-cache: the refill path
        is exercised, never trusted stale.
        """
        line_size = self.caches.line_size
        base = address - (address % line_size)
        dcache = self._decode_cache
        for pc in range(base, base + line_size, INSTRUCTION_SIZE):
            dcache.pop(pc, None)
        if self._sb is not None:
            self._sb.flush()

    def _fetch(self, pc):
        entry = self._decode_cache.get(pc)
        if entry is None:
            entry = self._decode_cache[pc] = decode_entry(self.memory, pc)
        line = pc >> self._iline_shift
        if line != self._last_iline:
            self._last_iline = line
            extra = (self.caches.instruction_access_fast(pc)[0]
                     - self._l1_latency)
            if extra > 0:
                self.cycles += extra
                self.counters["memory_stall_cycles"] += extra
        page = pc >> 12
        if page != self._last_ipage:
            self._last_ipage = page
            self.itlb.access(pc)
        return entry

    def _access(self, op, address, value=0):
        """Perform *op*'s data access and charge it to the D-TLB and the
        caches; returns the value read, or *value*, which a write stores.

        :data:`~repro.isa.semantics.MEMORY` gives the access: a ``rs1 +
        imm`` op accesses *address*; a push form moves sp down first and
        accesses it, a pop form accesses sp and moves it up after.
        """
        size, write, sp = MEMORY[op]
        state = self.state
        if sp < 0:
            address = state.sp = (state.sp - 4) & MASK32
        elif sp:
            address = state.sp
        memory = self.memory
        if write:
            if size == 4:
                memory.store_word(address, value)
            else:
                memory.store_byte(address, value)
        elif size == 4:
            value = memory.load_word(address)
        else:
            value = memory.load_byte(address)
        self.dtlb.access(address)
        extra = (self.caches.data_access_fast(address, write)[0]
                 - self._l1_latency)
        if extra > 0:
            self.cycles += extra
            self.counters["memory_stall_cycles"] += extra
        if sp > 0:
            state.sp = (address + 4) & MASK32
        return value

    def _mispredict(self, wrong_path_pc):
        """Charge the penalty and run the wrong path speculatively."""
        trace = self._tr_cpu
        ts0 = trace.now() if trace is not None else 0
        penalty = self.config.mispredict_penalty
        self.cycles += penalty
        self.counters["mispredict_penalty_cycles"] += int(penalty)
        if wrong_path_pc is not None:
            executed = speculate(self, wrong_path_pc,
                                 self.config.spec_window)
            if trace is not None:
                # One span per speculative window: enter at the branch,
                # squash after *executed* wrong-path instructions.
                trace.complete("cpu.speculate", ts0,
                               pc=self.state.pc, target=wrong_path_pc,
                               squashed=executed)
                self._tracer.metrics.observe(
                    "cpu.speculate.squashed", executed
                )
        elif trace is not None:
            trace.event("cpu.mispredict", pc=self.state.pc)

    # ------------------------------------------------------------------
    # architectural execution
    # ------------------------------------------------------------------
    def step(self):
        """Execute one architectural instruction; returns False on halt.

        This is the single-instruction reference implementation and the
        interpreter :meth:`run` falls back to for every instruction a
        compiled superblock does not cover; the closures replicate it
        exactly (differential tests: ``tests/cpu/test_fast_loop.py``,
        ``tests/cpu/test_superblock.py``).
        """
        state = self.state
        if state.halted:
            return False
        config = self.config
        predictor = self.predictor
        pc = state.pc
        op, rd, rs1, rs2, imm, next_pc = self._fetch(pc)
        regs = state.regs
        self.cycles += self._base_cost
        self.op_counts[op] += 1

        if ADD <= op <= SLTU:
            if MUL <= op <= MOD:
                self.cycles += (
                    config.div_extra if op != MUL else config.mul_extra
                )
            state.write_reg(rd, ALU[op](regs[rs1], regs[rs2]))
        elif ADDI <= op <= MOV:
            if op == MULI:
                self.cycles += config.mul_extra
            state.write_reg(rd, ALU[op](regs[rs1], imm))
        elif LW <= op <= POP:
            value = self._access(op, (regs[rs1] + imm) & MASK32,
                                 regs[rs1] if op == PUSH else regs[rs2])
            if not MEMORY[op][1]:
                state.write_reg(rd, value)
        elif BEQ <= op <= BGEU:
            taken = TAKEN[op](regs[rs1], regs[rs2])
            predicted = predictor.predict_conditional(pc)
            mispredicted = predictor.resolve_conditional(pc, predicted, taken)
            if taken:
                self.counters["branches_taken"] += 1
                next_pc = (pc + imm) & MASK32
            if mispredicted:
                wrong_path = (
                    (pc + imm) & MASK32 if predicted
                    else (pc + INSTRUCTION_SIZE) & MASK32
                )
                self._mispredict(wrong_path)
        elif op == JMP:
            next_pc = (pc + imm) & MASK32
        elif op == JMPR:
            target = (regs[rs1] + imm) & MASK32
            predicted = predictor.predict_indirect(pc)
            mispredicted = predictor.resolve_indirect(pc, predicted, target)
            if predicted is None:
                self.cycles += config.btb_miss_penalty
            elif mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == CALL:
            return_address = next_pc
            self._access(op, 0, return_address)
            predictor.on_call(return_address)
            if self.shadow_stack is not None:
                self.shadow_stack.on_call(return_address)
            next_pc = (pc + imm) & MASK32
        elif op == CALLR:
            target = (regs[rs1] + imm) & MASK32
            predicted = predictor.predict_indirect(pc)
            mispredicted = predictor.resolve_indirect(pc, predicted, target)
            return_address = next_pc
            self._access(op, 0, return_address)
            predictor.on_call(return_address)
            if self.shadow_stack is not None:
                self.shadow_stack.on_call(return_address)
            if predicted is None:
                self.cycles += config.btb_miss_penalty
            elif mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == RET:
            target = self._access(op, 0)
            if self.shadow_stack is not None:
                try:
                    self.shadow_stack.on_return(target)
                except ShadowStackViolation:
                    if self._tr_cpu is not None:
                        self._tr_cpu.event("cpu.shadow_divergence",
                                           pc=pc, target=target)
                    raise
            predicted = predictor.predict_return()
            mispredicted = predictor.resolve_return(predicted, target)
            if mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == CLFLUSH:
            if self.config.clflush_privileged and not self.kernel_mode:
                raise PrivilegeFault(
                    "clflush is disabled for non-privileged code "
                    "(countermeasure active)"
                )
            address = (regs[rs1] + imm) & MASK32
            self.caches.flush_line(address)
            if self.memory.executable_at(address):
                self._flush_code_line(address)
            self.cycles += config.clflush_latency
        elif op == MFENCE:
            self.cycles += config.fence_latency
            self.counters["fence_stall_cycles"] += int(config.fence_latency)
        elif op == RDCYCLE:
            state.write_reg(rd, int(self.cycles) & MASK32)
        elif op == RDINSTRET:
            state.write_reg(rd, sum(self.op_counts) & MASK32)
        elif op == SYSCALL:
            self.cycles += config.syscall_latency
            if self.syscall_handler is None:
                raise CpuFault(f"syscall at {pc:#010x} with no handler")
            state.pc = next_pc  # handlers (execve) may overwrite this
            self.syscall_handler(self)
            return not state.halted
        elif op == NOP:
            pass
        elif op == HALT:
            state.halted = True
            return False
        else:  # pragma: no cover - every opcode is handled above
            raise CpuFault(f"unhandled opcode {op:#04x} at {pc:#010x}")

        state.pc = next_pc
        return True

    #: How many instructions retire between watchdog charges; coarse
    #: enough to keep the interpreter loop hot, fine enough that a
    #: runaway chain is caught within one chunk of its budget.
    WATCHDOG_STRIDE = 1024

    def _run_traced(self, max_instructions=None):
        """The step()-driven run loop: traced runs and ``--engine step``.

        Trace events sample ``self.cycles`` when they are emitted, so a
        traced run must keep the architectural state live in the object
        after every instruction — which is exactly what step() does.
        """
        executed = 0
        stride = self.WATCHDOG_STRIDE
        watchdog = self.watchdog
        while not self.state.halted:
            if max_instructions is not None and executed >= max_instructions:
                break
            self.step()
            executed += 1
            if watchdog is not None and executed % stride == 0:
                watchdog.charge(stride)
        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed

    def _run_profiled(self, max_instructions=None):
        """The step()-driven run loop with per-instruction attribution.

        Like :meth:`_run_traced`, this keeps architectural state live in
        the object after every instruction — run ≡ step bit-exactness
        means profiling observes the run without perturbing it.  Around
        each step() we snapshot the virtual clock, the memory-stall and
        mispredict-penalty counters, the decode cache and the tracer's
        emission ordinal; the deltas feed the ambient profiler's
        subsystem buckets, opcode table and basic-block runs.
        """
        prof = self._prof
        state = self.state
        counters = self.counters
        dcache = self._decode_cache
        tracer = self._tracer
        size = INSTRUCTION_SIZE
        stride = self.WATCHDOG_STRIDE
        watchdog = self.watchdog
        # Under the sb engine, translation still happens (and is timed
        # into the ``translate`` bucket) so its cost is attributed
        # honestly — but the compiled closures are never *executed*
        # here: profiling observes the run step by step.  Translation
        # decisions are heat-count driven, hence deterministic.
        sb = sb_blocks = sb_heat = sb_threshold = None
        if self._engine == "sb":
            sb = self._sb
            if sb is None:
                sb = self._sb = SuperblockEngine()
            sb_blocks = sb.blocks
            sb_heat = sb.heat
            sb_threshold = sb.HOT_THRESHOLD
        executed = 0
        blk_start = -1
        blk_instr = 0
        blk_cycles = 0.0
        prev_pc = -1
        try:
            while not state.halted:
                if (max_instructions is not None
                        and executed >= max_instructions):
                    break
                pc = state.pc
                entry = dcache.get(pc)
                missed = entry is None
                if sb is not None and sb_blocks.get(pc) is None:
                    heat = sb_heat.get(pc, 0) + 1
                    if heat >= sb_threshold:
                        wall0 = perf_counter()
                        sb.translate(self, pc)
                        prof.translation(perf_counter() - wall0)
                    else:
                        sb_heat[pc] = heat
                cycles0 = self.cycles
                mem0 = counters["memory_stall_cycles"]
                br0 = counters["mispredict_penalty_cycles"]
                seq0 = tracer._seq if tracer is not None else 0
                wall0 = perf_counter()
                self.step()
                wall = perf_counter() - wall0
                if entry is None:
                    # decoded during the step (and still cached unless
                    # an execve flushed it mid-instruction)
                    entry = dcache.get(pc)
                op = entry[0] if entry is not None else -1
                delta = self.cycles - cycles0
                prof.instruction(
                    op, delta,
                    counters["memory_stall_cycles"] - mem0,
                    counters["mispredict_penalty_cycles"] - br0,
                    missed, wall,
                    (tracer._seq - seq0) if tracer is not None else 0,
                )
                if blk_start < 0:
                    blk_start = pc
                elif pc != (prev_pc + size) & MASK32:
                    prof.block(blk_start, prev_pc, blk_instr, blk_cycles)
                    blk_start = pc
                    blk_instr = 0
                    blk_cycles = 0.0
                blk_instr += 1
                blk_cycles += delta
                prev_pc = pc
                executed += 1
                if watchdog is not None and executed % stride == 0:
                    watchdog.charge(stride)
        finally:
            if blk_start >= 0 and blk_instr:
                prof.block(blk_start, prev_pc, blk_instr, blk_cycles)
        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed

    def run(self, max_instructions=None):
        """Run until halt (or *max_instructions*); returns retired count.

        When ``self.watchdog`` is set, the retired count is charged to it
        in :data:`WATCHDOG_STRIDE` chunks; an exhausted budget raises
        :class:`~repro.errors.BudgetExceededError` out of the loop — this
        is what turns a never-halting injected chain into a typed error
        instead of a hang.

        Untraced runs (the default) dispatch on the superblock cache:
        a compiled block runs when it fits whole before the next pause
        or watchdog boundary, and anything else — cold code, block
        terminators, a block that would straddle a boundary — runs
        through :meth:`step`.  The object holds the machine state
        throughout; only a block call reads ``state.pc``, ``cycles``
        and the fetch locality into arguments and writes its return
        tuple back.  A faulting closure syncs the object before it
        re-raises, so every exit path leaves exactly the state the
        step() loop would.
        """
        if self._prof is not None:
            return self._run_profiled(max_instructions)
        if self._step_trace or self._engine == "step":
            return self._run_traced(max_instructions)
        sb = self._sb
        if sb is None:
            sb = self._sb = SuperblockEngine()
        # Live references: flush() clears these dicts in place, so an
        # invalidation fired from inside a closure (SMC) or a step()
        # (execve, clflush of code) is visible to this loop at once.
        sb_blocks = sb.blocks
        sb_heat = sb.heat
        sb_translate = sb.translate
        sb_threshold = sb.HOT_THRESHOLD
        sb_wp = sb.wp
        state = self.state
        counters = self.counters
        step = self.step
        watchdog = self.watchdog
        stride = self.WATCHDOG_STRIDE
        limit = -1 if max_instructions is None else max_instructions
        executed = 0

        while not state.halted:
            if executed == limit:
                break
            pc = state.pc
            block = sb_blocks.get(pc)
            if block is None:
                heat = sb_heat.get(pc, 0) + 1
                if heat >= sb_threshold:
                    block = sb_translate(self, pc)
                else:
                    sb_heat[pc] = heat
            # Blocks never straddle a charge stride or a chunked run()'s
            # instruction limit; one that does not fit single-steps.
            if block and ((limit < 0 or executed + block[1] <= limit)
                          and (watchdog is None
                               or executed % stride + block[1] <= stride)):
                (state.pc, done, self.cycles, self._last_iline,
                 self._last_ipage) = block[0](
                    state.regs, counters, self.cycles,
                    self._last_iline, self._last_ipage)
                executed += done
                wp = sb_wp[0]
                if wp is not None:
                    # A compiled side exit resolved a mispredicted
                    # branch; the block has fully committed, so the
                    # wrong-path walk sees exactly the machine step()
                    # has when it mispredicts.
                    sb_wp[0] = None
                    self._mispredict(wp)
            else:
                step()
                executed += 1
            if watchdog is not None and executed % stride == 0:
                watchdog.charge(stride)

        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed
