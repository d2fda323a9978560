"""Superblock translation: hot traces become closures.

The in-order core's step() pays per-instruction dispatch: one method
call, one decode-cache lookup, one opcode compare chain, several dict
updates.
This module removes that tax for the hot traces of a program.  When an
entry PC has been dispatched :data:`SuperblockEngine.HOT_THRESHOLD`
times, the trace of translatable instructions starting there is
compiled — once — into a single Python closure that executes the whole
region with every piece of hot state (registers, retire and PMU counter
deltas, cycle count, fetch locality, the L1D hit path, the D-TLB MRU
check, the BHT counters of its conditional branches) held in locals or
bound directly, and the dispatcher thereafter executes the block as one
call.

The region is a *superblock* proper, not just a basic block:

* unconditional direct jumps (``JMP``) do not end it — their constant
  target is followed at translation time (the jump itself costs exactly
  what step() charges: one retire-tally bump plus the base cycle cost),
  so the short runs that assembly loops fracture into
  ``…; jmp next`` chains fuse back into one closure;
* conditional branches do not end it either: collection follows each
  one in the direction the core's 2-bit BHT counter predicts when the
  block is translated, and the block leaves through a side exit when a
  branch goes the other way;
* the covert channel's serialising ops run inside it: ``rdcycle``
  reads the block's synced cycle count, ``mfence`` charges its latency
  and stall cycles, and ``clflush`` flushes its line (see the
  deoptimisation contract for its two exits).

Collection stops when a jump target, a followed branch or the
sequential fall-through re-enters a pc already in the trace.  A trace
that returns to its entry is a loop and becomes one closure that runs
its body, compiled once, under a counted ``for`` loop; one that enters
a loop past its head ends at the head, which then heats up and
compiles as that loop, instead of unrolling it into straight-line
source.

Bit-exactness contract
----------------------
A block execution must leave the CPU in *exactly* the state the step()
loop would have: identical registers, pc, ``cycles`` float, all PMU
counters, cache/TLB contents and replacement state.  The generated
code therefore:

* performs loads/stores through the real ``Memory`` methods and the
  D-TLB/L1D inline paths replicate ``Tlb.access``'s MRU shortcut and
  ``Cache.access``'s LRU hit path *statement for statement* (anything
  else — TLB miss, L1 miss, non-LRU policy — delegates to the real
  objects, which then do their own accounting);
* batches the *constant* per-instruction cycle costs only when every
  cost sits on a dyadic (2^-20) grid, where float addition is exact and
  therefore order-insensitive; otherwise costs are emitted per
  instruction in program order.  ``rdcycle``, branches, memory ops and
  every exit flush the batch first, so whatever reads ``cycles`` sees
  step()'s value;
* batches the retire tally and the PMU counter increments (plain int
  adds — commutative and exact) into one flush per exit path.

Deoptimisation contract
-----------------------
Indirect jumps, calls, returns, syscalls, ``halt`` and ``rdinstret``
(which reads the retire tally the block batches) *terminate*
translation and stay in the dispatcher.  The exits mid-block are:

* **side exits**: a conditional branch that goes against its traced
  direction, or any mispredicted one, commits the block's progress
  through the shared out-of-line :func:`_flush_exit`; a mispredict
  parks its wrong-path pc for the dispatcher.  With the trace following
  the predictor these are the uncommon case: the branch had to go
  against its counter's prediction at translation time;
* **privilege**: with ``clflush_privileged`` set, a ``clflush`` outside
  kernel mode side-exits *before* the instruction, so step() executes
  it and raises the fault.  Such a ``clflush`` never heads a trace, so
  the exit always commits progress;
* **faults** (memory/alignment/protection): the closure's exception
  handler calls the shared out-of-line :func:`_fault_exit`, which
  flushes the counts retired so far (a compile-time table keyed by
  the faulting mem-op occurrence), writes back registers, and syncs
  ``state.pc``/``cycles``/fetch locality to the faulting instruction —
  exactly the state the step loop leaves — then the closure re-raises;
* **generation exits**: every store is followed by a generation check;
  a store that hits an executable segment bumps the engine generation
  (via the Memory code-write listener), and a ``clflush`` of a line
  that holds code drops the translation caches the same way; either
  way the closure returns with its partial progress so not a single
  stale instruction executes;
* **pause boundaries** (chunked ``run(max_instructions=…)`` calls and
  watchdog strides) never happen mid-block: the dispatcher only enters
  a block whose full length fits before the next boundary, and
  single-steps otherwise.

Invalidation rules
------------------
``flush()`` empties the block cache *in place* (the dispatcher holds
live references), clears the heat table and bumps the generation.  It
is driven by the decode-cache flush paths: ``Cpu.reset_for_exec`` (the
``execve`` remap), the Memory code-write listener (stores into
executable segments), and ``clflush`` of a line inside an executable
segment.
"""

import weakref

from repro.branch.bht import STRONG_NOT_TAKEN, STRONG_TAKEN, WEAK_TAKEN
from repro.errors import CpuFault, MemoryFault
from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.semantics import (
    ADD, ADDI, BEQ, BGEU, CLFLUSH, COND, COST, DIV, JMP, LW, MASK32,
    MEMORY, MFENCE, MOD, MOV, NOP, POP, RDCYCLE, SLTU, VALUE, decode_entry,
    truncdiv,
)

#: Source-text -> code-object translation cache, shared process-wide.
#: A block's generated source fully determines its code object (every
#: pc, constant and geometry parameter is baked into the text; live
#: state is rebound per-core through the closure's default arguments),
#: so cores running the same binary — fresh System instances, repeated
#: experiment sweeps, a re-run after an SMC flush that restored the
#: original bytes — reuse the compiled code and skip ``compile()``,
#: which otherwise dominates translation cost.
_CODE_CACHE = {}
_CODE_CACHE_MAX = 4096

#: Stands for a loop block's full register write set in its exit calls
#: until the body is complete and the set is known.
_ALL_WRITES = "<all writes>"


def _translatable(op):
    """Ops a block body may contain; anything else terminates it."""
    return (
        ADD <= op <= SLTU
        or ADDI <= op <= MOV
        or LW <= op <= POP
        or CLFLUSH <= op <= RDCYCLE
        or op == NOP
    )


def _dyadic(value):
    """Exactly representable on the 2^-20 grid (so float + is exact)."""
    scaled = value * 1048576.0
    return scaled == int(scaled) and abs(value) < 1e6


def _retire(hw, counters, counts, times=1):
    """Commit *times* copies of a block's ``(ops, taken)`` counts.

    *ops* are ``(op, n)`` pairs for the core's retire tally; each
    conditional branch among them is also one BHT prediction and each
    ``mfence`` its fence stall; *taken* counts the taken branches.
    """
    ops, taken = counts
    tally = hw[4]
    for op, n in ops:
        tally[op] += n * times
        if BEQ <= op <= BGEU:
            hw[0].conditional_predictions += n * times
        elif op == MFENCE:
            counters["fence_stall_cycles"] += hw[5] * n * times
    if taken:
        counters["branches_taken"] += taken * times


def _commit(hw, counters, regs, row, it, vals, n_stall, n_tlb, n_l1r,
            n_l1w, n_ihit):
    """Commit a block's progress at one of its exit rows.

    Flushes the row's retired-so-far counts (:func:`_retire`), the
    batched memory tallies (``n_*``: the D-TLB, L1D and L1I hit paths),
    and the registers written so far.  *hw* is the core's ``(predictor,
    dtlb, l1d stats, l1i stats, retire tally, fence stall cycles,
    engine stats)``.

    *row* is the exit's constant ``(counts, next_pc, k, widx, ccounts,
    kstep)``.  *it* is the loop iteration the exit fired on (0 for a
    block that is not a loop): a loop body is compiled once and run
    under ``for _it in range(copies)``, so the exit's absolute retired
    counts are its within-body prefix plus *it* full bodies
    (``ccounts``/``kstep``).  Returns the retired count.
    """
    counts, _, k, widx, ccounts, kstep = row
    _retire(hw, counters, counts)
    if it:
        _retire(hw, counters, ccounts, it)
        k += it * kstep
    dtlb, l1stats, i1stats = hw[1:4]
    if n_stall:
        counters["memory_stall_cycles"] += n_stall
    if n_tlb:
        dtlb.hits += n_tlb
    l1stats.count_hits(n_l1r, n_l1w)
    i1stats.count_hits(n_ihit)
    for index, value in zip(widx, vals):
        regs[index] = value
    return k


def _flush_exit(hw, counters, regs, row, it, cycles, last_iline,
                last_ipage, vals, n_stall, n_tlb, n_l1r, n_l1w, n_ihit):
    """Out-of-line side exit shared by every compiled block.

    Counts the exit in the engine's ``side_exits``, commits through
    :func:`_commit` and returns the dispatcher tuple.  Keeping the
    commit out of the generated source keeps ``compile()`` fast: a
    block would otherwise repeat ~30 flush lines for every exit, and
    block compilation time would swamp the translation win.
    """
    hw[6]["side_exits"] += 1
    k = _commit(hw, counters, regs, row, it, vals, n_stall, n_tlb, n_l1r,
                n_l1w, n_ihit)
    return row[1], k, cycles, last_iline, last_ipage


def _fault_exit(cpu, hw, counters, regs, row, it, pc, cycles, last_iline,
                last_ipage, vals, n_stall, n_tlb, n_l1r, n_l1w, n_ihit):
    """Out-of-line fault path shared by every block with a memory op.

    The closure catches the exception, calls this, and re-raises.  *row*
    is the live mem-op occurrence's :func:`_commit` row (its count
    snapshot, scaled by *it* full loop bodies, and every register the
    block writes: the ones not yet written this call still hold their
    prologue values).  After the commit, ``state.pc``/``cycles``/fetch
    locality are synced to the faulting instruction — exactly the state
    the step loop leaves.  The run() dispatcher keeps no copies of that
    state, so the synced object is final.
    """
    _commit(hw, counters, regs, row, it, vals, n_stall, n_tlb, n_l1r,
            n_l1w, n_ihit)
    cpu.state.pc = pc
    cpu.cycles = cycles
    cpu._last_iline = last_iline
    cpu._last_ipage = last_ipage


class _Codegen:
    """Builds the closure source for one trace of decoded entries.

    *entries* is a list of ``(pc, decoded, taken)`` triples — pcs are
    not necessarily sequential because collection follows jumps and
    branches, and *taken* is the direction a conditional branch was
    traced in.  *exit_pc* is where execution continues after the block
    (the sequential successor, or the final transfer's target).
    """

    def __init__(self, cpu, engine, entry_pc, entries, copies, exit_pc):
        self.cpu = cpu
        self.engine = engine
        self.entry_pc = entry_pc
        self.entries = entries
        #: loop count: *entries* is ONE loop body, compiled once and run
        #: under ``for _it in range(copies)``, so generated source — and
        #: ``compile()`` time — stays proportional to the body.
        self.copies = copies
        self.exit_pc = exit_pc
        self.base_cost = cpu._base_cost
        self.costs = cpu._costs  # the core's bound COST table
        self.privileged = cpu.config.clflush_privileged
        self.l1_latency = cpu._l1_latency
        self.l1d = cpu.caches.l1d
        self.d_state = self.l1d.inline_state()
        self.inline_l1 = self.d_state is not None
        self.l1i = cpu.caches.l1i
        self.i_state = self.l1i.inline_state()
        self.inline_i = self.i_state is not None
        self.batch_cycles = _dyadic(self.base_cost) and all(
            _dyadic(self.costs[op]) for op in COST if _translatable(op))
        self.lines = []
        self.pending = 0.0
        #: ops retired so far in the body (``{op: n}``), and how many of
        #: its conditional branches were taken
        self.counts = {}
        self.taken = 0
        #: per-fault-site :meth:`_snapshot` rows, indexed by the ``_pi``
        #: occurrence local.  Slot 0 covers an asynchronous exception
        #: before the first memory op.
        self.partial_list = [((), 0)]
        #: per-side-exit ``(counts, next_pc, k, widx)`` rows; bound as
        #: :func:`_commit` rows, so generated exits are a single call
        #: indexing into this table.
        self.exits = []
        #: one full body's counts, snapshotted once the body is emitted.
        self.copy_counts = None
        self.touched = set()
        self.writes = set()
        #: registers read before their first in-block write — the only
        #: ones an ALU-only block needs to load in its prologue.
        self.need_load = set()
        #: set when a conditional branch was internalised (binds the
        #: BHT counter list, the predictor and the mispredict hand-off
        #: cell).
        self.has_branch = False
        #: set when a DIV or MOD was emitted (binds ``truncdiv``).
        self.has_div = False
        self.bht = cpu.predictor.bht
        #: fetch-locality state known at compile time: after the entry
        #: instruction's runtime check, ``last_iline``/``last_ipage``
        #: equal the entry's line/page as compile-time constants.
        self.cur_line = None
        self.cur_page = None
        ops = [entry[0] for _, entry, _ in entries]
        self.has_mem = any(LW <= op <= POP for op in ops)
        self.has_clflush = CLFLUSH in ops

    # -- small emission helpers --------------------------------------
    def emit(self, line):
        self.lines.append(line)

    def add_cycles(self, cost):
        if self.batch_cycles:
            self.pending += cost
        elif cost:
            self.emit(f"cycles += {cost!r}")

    def flush_cycles(self):
        if self.batch_cycles and self.pending:
            self.emit(f"cycles += {self.pending!r}")
            self.pending = 0.0

    def reg(self, index):
        self.touched.add(index)
        if index not in self.writes:
            self.need_load.add(index)
        return f"r{index}"

    def wreg(self, index):
        self.touched.add(index)
        self.writes.add(index)
        return f"r{index}"

    def _snapshot(self, taken=0):
        """The ``(ops, taken)`` counts retired so far this body, as
        :func:`_retire` commits them, with *taken* more taken branches."""
        return tuple(self.counts.items()), self.taken + taken

    def _dyn_flush_lines(self, indent):
        lines = []
        if self.has_mem:
            lines += [
                f"{indent}if _n_stall:",
                f'{indent}    counters["memory_stall_cycles"] += _n_stall',
                f"{indent}if _n_tlb:",
                f"{indent}    _dtlb.hits += _n_tlb",
            ]
            if self.inline_l1:
                lines += [
                    f"{indent}if _n_l1r or _n_l1w:",
                    f"{indent}    _h = _n_l1r + _n_l1w",
                    f"{indent}    _l1stats.accesses += _h",
                    f"{indent}    _l1stats.hits += _h",
                    f"{indent}    if _n_l1r:",
                    f"{indent}        _l1stats.read_accesses += _n_l1r",
                    f"{indent}    if _n_l1w:",
                    f"{indent}        _l1stats.write_accesses += _n_l1w",
                ]
        if self.inline_i:
            lines += [
                f"{indent}if _n_ihit:",
                f"{indent}    _i1stats.accesses += _n_ihit",
                f"{indent}    _i1stats.read_accesses += _n_ihit",
                f"{indent}    _i1stats.hits += _n_ihit",
            ]
        return lines

    def _writeback_lines(self, indent):
        return [f"{indent}regs[{i}] = r{i}" for i in sorted(self.writes)]

    # -- fetch locality ----------------------------------------------
    def _icharge_lines(self, pc, indent):
        """Statements charging an instruction-fetch line access.

        With an LRU untraced L1I the hit path is probed inline — the
        set index and tag are compile-time constants of *pc*, so a hit
        is one dict probe plus the LRU clock bump, with the stats
        batched into ``_n_ihit``.  A miss falls back to the hierarchy
        (whose own probe repeats the lookup and takes the fill path).
        """
        stall = ("_n_stall += _x" if self.has_mem
                 else 'counters["memory_stall_cycles"] += _x')
        if not self.inline_i:
            return [
                f"{indent}_x = _icache_fast({pc})[0] - {self.l1_latency}",
                f"{indent}if _x > 0:",
                f"{indent}    cycles += _x",
                f"{indent}    {stall}",
            ]
        i_state = self.i_state
        line = pc >> i_state["line_shift"]
        si = line & i_state["set_mask"]
        tag = line >> i_state["index_shift"]
        return [
            f"{indent}_w = _i1maps[{si}].get({tag})",
            f"{indent}if _w is None:",
            f"{indent}    _x = _icache_fast({pc})[0] - {self.l1_latency}",
            f"{indent}    if _x > 0:",
            f"{indent}        cycles += _x",
            f"{indent}        {stall}",
            f"{indent}else:",
            f"{indent}    _ck = _i1clocks[{si}] + 1",
            f"{indent}    _i1clocks[{si}] = _ck",
            f"{indent}    _i1stamps[{si}][_w] = _ck",
            f"{indent}    _n_ihit += 1",
        ]

    def _emit_fetch(self, pc):
        """I-cache line / I-TLB page charges, as step() does them.

        The entry instruction checks against the live locality state —
        on every loop iteration, since the body is emitted once; after
        that check ``last_iline``/``last_ipage`` equal the entry's
        line/page whichever way it went, so every later instruction's
        locality is a compile-time constant (``cur_line``/``cur_page``)
        even across followed jumps and branches: a crossing emits an
        unconditional charge, a non-crossing emits nothing.
        """
        line = pc >> self.l1i._line_shift
        page = pc >> 12
        if self.cur_line is None:
            self.emit(f"if {line} != last_iline:")
            self.emit(f"    last_iline = {line}")
            for stmt in self._icharge_lines(pc, "    "):
                self.emit(stmt)
            self.emit(f"if {page} != last_ipage:")
            self.emit(f"    last_ipage = {page}")
            self.emit(f"    _itlb_access({pc})")
            self.cur_line = line
            self.cur_page = page
            return
        if line != self.cur_line:
            self.emit(f"last_iline = {line}")
            for stmt in self._icharge_lines(pc, ""):
                self.emit(stmt)
            self.cur_line = line
        if page != self.cur_page:
            self.emit(f"last_ipage = {page}")
            self.emit(f"_itlb_access({pc})")
            self.cur_page = page

    # -- data-side inline paths --------------------------------------
    def _emit_dtlb(self, addr):
        self.emit(f"_pg = {addr} >> 12")
        self.emit("if _pg == _tlb_last:")
        self.emit("    _n_tlb += 1")
        self.emit("else:")
        self.emit(f"    _dtlb_access({addr})")
        self.emit("    _tlb_last = _pg")

    def _emit_l1d(self, addr, is_write):
        lat = self.l1_latency
        flag = "True" if is_write else "False"
        if not self.inline_l1:
            self.emit(f"_x = _data_fast({addr}, {flag})[0] - {lat}")
            self.emit("if _x > 0:")
            self.emit("    cycles += _x")
            self.emit("    _n_stall += _x")
            return
        d_state = self.d_state
        mask = d_state["set_mask"]
        ishift = d_state["index_shift"]
        self.emit(f"_ln = {addr} >> {d_state['line_shift']}")
        self.emit(f"_si = _ln & {mask}")
        self.emit(f"_w = _l1maps[_si].get(_ln >> {ishift})")
        self.emit("if _w is None:")
        self.emit(f"    _x = _data_fast({addr}, {flag})[0] - {lat}")
        self.emit("    if _x > 0:")
        self.emit("        cycles += _x")
        self.emit("        _n_stall += _x")
        self.emit("else:")
        self.emit("    _ck = _l1clocks[_si] + 1")
        self.emit("    _l1clocks[_si] = _ck")
        self.emit("    _l1stamps[_si][_w] = _ck")
        if is_write:
            self.emit("    _l1dirty[_si][_w] = True")
            self.emit("    _n_l1w += 1")
        else:
            self.emit("    _n_l1r += 1")

    def _emit_mem_sync(self, pc):
        """Flush batched cycles and mark *pc* as the live fault point.

        ``_pi`` is the mem-op occurrence *within the body*; the fault
        handler adds ``_it`` full bodies on top.
        """
        self.flush_cycles()
        self.emit(f"pc = {pc}")
        self.emit(f"_pi = {len(self.partial_list)}")
        self.partial_list.append(self._snapshot())

    def _tally_args(self):
        """The batched-tally arguments of the out-of-line helpers.

        ``_n_stall, _n_tlb, _n_l1r, _n_l1w, _n_ihit``, with ``0`` for a
        tally this block does not keep.
        """
        mem = self.has_mem
        l1 = mem and self.inline_l1
        return ", ".join((
            "_n_stall" if mem else "0", "_n_tlb" if mem else "0",
            "_n_l1r" if l1 else "0", "_n_l1w" if l1 else "0",
            "_n_ihit" if self.inline_i else "0",
        ))

    @staticmethod
    def _vals(widx):
        return "(" + "".join(f"r{i}, " for i in widx) + ")"

    def _exit_call(self, next_pc, k, taken=0):
        """One-line call committing through :func:`_flush_exit`.

        Registers the exit's row (within-body counts, with *taken* more
        taken branches, resumption pc, retired count and the registers
        written so far) in the ``_exits`` table and returns the call
        expression.  A loop's exit may fire on any iteration, after the
        whole body has run, so it writes back the full write set, which
        :meth:`_assemble` fills in once the body is complete.
        """
        j = len(self.exits)
        if self.copies > 1:
            widx, vals, it_expr = None, _ALL_WRITES, "_it"
        else:
            widx = tuple(sorted(self.writes))
            vals, it_expr = self._vals(widx), "0"
        self.exits.append((self._snapshot(taken), next_pc, k, widx))
        return (f"return _fx(_hw, counters, regs, _exits[{j}], {it_expr}, "
                f"cycles, last_iline, last_ipage, {vals}, "
                f"{self._tally_args()})")

    def _generation_exit(self, index):
        """The exit leaving after entry *index* once the translation
        caches were dropped under the block (SMC, or ``clflush`` of
        code); None when nothing is left to run stale."""
        last = index == len(self.entries) - 1
        if last and self.copies == 1:
            return None  # the normal exit syncs
        # Stores and clflush fall through sequentially, so the
        # resumption point is the next entry's pc (== pc +
        # INSTRUCTION_SIZE) — or, for the last entry of a loop body,
        # the next iteration's re-entry at the block head.
        next_pc = self.entry_pc if last else self.entries[index + 1][0]
        return self._exit_call(next_pc, index + 1)

    def _emit_deopt_check(self, index):
        """Post-store generation check: SMC deoptimises mid-block."""
        exit_call = self._generation_exit(index)
        if exit_call is not None:
            self.emit(f"if _gen[0] != {self.engine.gen[0]}:")
            self.emit("    " + exit_call)

    # -- conditional branches (side exits) ----------------------------
    def _emit_branch(self, op, rs1, rs2, imm, index, pc, traced_taken):
        """Conditional branch with compiled side exits.

        The trace continues in *traced_taken*'s direction, the one the
        BHT predicted at translation time; the other direction — and
        *any* mispredict — takes a side exit that flushes every batched
        piece of state and returns.  A mispredict additionally parks
        the wrong-path pc in the engine's hand-off cell so the
        dispatcher runs ``Cpu._mispredict`` *after* the closure has
        committed — at that point the PMU, cache and register state
        are exactly what step() has when it calls
        ``_mispredict`` mid-instruction, so the speculative wrong-path
        walk (the Spectre machinery) observes an identical machine.
        """
        # Branches are cycle sync points: flush pending costs so every
        # exit (and the dispatcher's _mispredict) sees current cycles.
        self.flush_cycles()
        self.has_branch = True
        cond = COND[op].format(a=self.reg(rs1), b=self.reg(rs2))
        taken_pc = (pc + imm) & MASK32
        fall_pc = (pc + INSTRUCTION_SIZE) & MASK32
        k = index + 1
        # The 2-bit BHT counter, predicted and trained inline exactly as
        # BranchPredictor.predict_conditional/resolve_conditional do:
        # the index is a compile-time constant of pc, ``_c`` is the
        # counter before training, and the prediction is ``_c >=
        # WEAK_TAKEN``.  Every internalised branch is one prediction,
        # which the exits commit with the retire counts; a mispredict is
        # tallied here, on its way to the side exit.
        counter = f"_bht[{self.bht._index(pc)}]"
        self.emit(f"_c = {counter}")
        train_taken = [f"if _c < {STRONG_TAKEN}:",
                       f"    {counter} = _c + 1"]
        train_not_taken = [f"if _c > {STRONG_NOT_TAKEN}:",
                           f"    {counter} = _c - 1"]
        mispredict = "_pred.conditional_mispredictions += 1"
        if traced_taken:
            # Exit on not-taken; a not-taken mispredict means
            # predicted-taken, so the wrong path is the target.
            self.emit(f"if not ({cond}):")
            for line in train_not_taken:
                self.emit("    " + line)
            self.emit(f"    if _c >= {WEAK_TAKEN}:")
            self.emit(f"        _wp[0] = {taken_pc}")
            self.emit(f"        {mispredict}")
            self.emit("    " + self._exit_call(fall_pc, k))
            # Taken but mispredicted: exit too (the dispatcher must
            # speculate down the fall-through before anything newer
            # retires); re-entry continues at the target.
            for line in train_taken:
                self.emit(line)
            self.emit(f"if _c < {WEAK_TAKEN}:")
            self.emit(f"    _wp[0] = {fall_pc}")
            self.emit(f"    {mispredict}")
            self.emit("    " + self._exit_call(taken_pc, k, 1))
            self.taken += 1  # the surviving path is taken
        else:
            self.emit(f"if {cond}:")
            for line in train_taken:
                self.emit("    " + line)
            self.emit(f"    if _c < {WEAK_TAKEN}:")
            self.emit(f"        _wp[0] = {fall_pc}")
            self.emit(f"        {mispredict}")
            self.emit("    " + self._exit_call(taken_pc, k, 1))
            for line in train_not_taken:
                self.emit(line)
            self.emit(f"if _c >= {WEAK_TAKEN}:")
            self.emit(f"    _wp[0] = {taken_pc}")
            self.emit(f"    {mispredict}")
            self.emit("    " + self._exit_call(fall_pc, k))

    # -- per-opcode bodies -------------------------------------------
    def _emit_alu(self, op, rd, rs1, rs2, imm):
        if op == DIV or op == MOD:
            self.has_div = True
        if rd == 0:
            return  # writes to r0 are discarded; nothing to compute
        # Sources are recorded (``reg``) before the destination
        # (``wreg``) so the read-before-write analysis sees an
        # instruction like ``add r4, r4, r5`` as needing r4 loaded.
        template = VALUE[op]
        a = self.reg(rs1) if "{a}" in template else None  # li reads none
        b = self.reg(rs2) if op <= SLTU else imm  # rrr: rs2, else imm
        self.emit(f"{self.wreg(rd)} = {template.format(a=a, b=b)}")

    def _emit_access(self, op, rd, rs1, rs2, imm, index, pc):
        """One data access (:data:`~repro.isa.semantics.MEMORY`), in
        step()'s order: the address, the memory call, the D-TLB and L1D
        charges, then a pop's sp update and the loaded register, or a
        store's generation check."""
        size, write, sp = MEMORY[op]
        self._emit_mem_sync(pc)
        if sp:
            value = self.reg(rs1) if write else None
            self.reg(13)  # sp is read before it is written
            addr = self.wreg(13)
            if write:
                # sp moves *before* the store, as in step() — a
                # faulting push leaves the decremented sp behind.
                self.emit(f"{addr} = ({addr} - 4) & 4294967295")
        else:
            base = self.reg(rs1)
            value = self.reg(rs2) if write else None
            addr = "_a"
            self.emit(f"_a = ({base} + {imm}) & 4294967295")
        if write:
            self.emit(f"{'_sw' if size == 4 else '_sbyte'}({addr}, {value})")
        else:
            self.emit(f"_v = {'_lw' if size == 4 else '_lb'}({addr})")
        self._emit_dtlb(addr)
        self._emit_l1d(addr, write)
        if sp > 0:
            self.emit(f"{addr} = ({addr} + 4) & 4294967295")
        if write:
            self._emit_deopt_check(index)
        elif rd:
            self.emit(f"{self.wreg(rd)} = _v & 4294967295")

    # -- serialising ops -----------------------------------------------
    def _emit_privilege_check(self, index, pc):
        """Hand a user-mode ``clflush`` to step(), which raises.

        The exit fires *before* the instruction is fetched or counted,
        so step() executes it from exactly the state it would have.
        """
        self.flush_cycles()
        self.emit("if not _core().kernel_mode:")
        self.emit("    " + self._exit_call(pc, index))

    def _emit_clflush(self, rs1, imm, index):
        """Flush the line; a line that holds code takes the generation
        exit once ``Cpu._flush_code_line`` has dropped the translation
        caches."""
        self.flush_cycles()
        self.emit(f"_a = ({self.reg(rs1)} + {imm}) & 4294967295")
        self.emit("_flush_line(_a)")
        self.emit("if _exec_at(_a):")
        self.emit("    _core()._flush_code_line(_a)")
        exit_call = self._generation_exit(index)
        if exit_call is not None:
            self.emit("    " + exit_call)

    def _emit_rdcycle(self, rd):
        self.flush_cycles()  # the read sees every cost retired so far
        if rd:
            self.emit(f"{self.wreg(rd)} = int(cycles) & 4294967295")

    # -- assembly ------------------------------------------------------
    def _emit_body(self):
        """Emit the body once: the whole block, or one loop iteration."""
        for index, (pc, entry, taken) in enumerate(self.entries):
            op, rd, rs1, rs2, imm, _ = entry
            if op == CLFLUSH and self.privileged:
                self._emit_privilege_check(index, pc)
            self._emit_fetch(pc)
            self.counts[op] = self.counts.get(op, 0) + 1
            self.add_cycles(self.base_cost)
            self.add_cycles(self.costs[op])
            if op == NOP or op == JMP or op == MFENCE:
                # A JMP is followed at translation time; the next
                # instruction's fetch emission handles the target's
                # line/page locality.  An mfence's stall rides _retire.
                continue
            if BEQ <= op <= BGEU:
                self._emit_branch(op, rs1, rs2, imm, index, pc, taken)
            elif LW <= op <= POP:
                self._emit_access(op, rd, rs1, rs2, imm, index, pc)
            elif op == CLFLUSH:
                self._emit_clflush(rs1, imm, index)
            elif op == RDCYCLE:
                self._emit_rdcycle(rd)
            else:
                self._emit_alu(op, rd, rs1, rs2, imm)
        self.flush_cycles()

    def build(self):
        """Emit the body (under the loop, for a loop), then assemble."""
        self._emit_body()
        self.copy_counts = self._snapshot()
        if self.copies > 1:
            # The body closed a cycle back to the entry pc, so it simply
            # re-runs: one compiled copy under a Python loop, with the
            # entry's fetch check at the top of every iteration.
            # Retired-count bookkeeping is within-body plus ``_it`` full
            # bodies (exits and the fault path scale by the per-body
            # constants).
            writes = self._vals(sorted(self.writes))
            self.lines = [f"for _it in range({self.copies}):"] + [
                "    " + stmt.replace(_ALL_WRITES, writes)
                for stmt in self.lines
            ]
        return self._assemble()

    def _bindings(self):
        """Name -> object defaults the closure binds at definition."""
        cpu = self.cpu
        engine = self.engine
        # The closure is stored in the engine, which the core owns, so
        # it binds the core's parts and never the core or the engine:
        # ``_hw`` for the side exits, the generation cell for the SMC
        # check, and a weak reference for the fault path's sync and
        # ``clflush``'s privilege check and code-line flush.
        bound = {
            "_hw": (cpu.predictor, cpu.dtlb, cpu.caches.l1d.stats,
                    cpu.caches.l1i.stats, cpu.op_counts,
                    int(self.costs[MFENCE]), engine.stats),
            "_tally": cpu.op_counts,
            "_gen": engine.gen,
        }
        widx = tuple(sorted(self.writes))
        if self.has_mem or self.has_clflush:
            bound["_core"] = weakref.ref(cpu)
        if self.has_mem:
            memory = cpu.memory
            bound.update({
                "_lw": memory.load_word,
                "_lb": memory.load_byte,
                "_sw": memory.store_word,
                "_sbyte": memory.store_byte,
                "_dtlb": cpu.dtlb,
                "_dtlb_access": cpu.dtlb.access,
                "_data_fast": cpu.caches.data_access_fast,
            })
            if self.inline_l1:
                d_state = self.d_state
                bound.update({
                    "_l1maps": d_state["maps"],
                    "_l1clocks": d_state["clocks"],
                    "_l1stamps": d_state["stamps"],
                    "_l1dirty": d_state["dirty"],
                    "_l1stats": d_state["stats"],
                })
            # One _commit row per mem-op occurrence (pc and k are
            # unused: the fault path syncs the object and re-raises).
            bound["_fe"] = _fault_exit
            bound["_frows"] = tuple(
                (counts, None, 0, widx, self.copy_counts, 0)
                for counts in self.partial_list
            )
        if self.has_clflush:
            bound["_flush_line"] = cpu.caches.flush_line
            bound["_exec_at"] = cpu.memory.executable_at
        if self.has_div:
            bound["truncdiv"] = truncdiv
        if self.exits:
            kstep = len(self.entries)
            bound["_fx"] = _flush_exit
            bound["_exits"] = tuple(
                (counts, next_pc, k, widx if row_widx is None else row_widx,
                 self.copy_counts, kstep)
                for counts, next_pc, k, row_widx in self.exits
            )
        if self.inline_i:
            i_state = self.i_state
            bound.update({
                "_i1maps": i_state["maps"],
                "_i1clocks": i_state["clocks"],
                "_i1stamps": i_state["stamps"],
                "_i1stats": i_state["stats"],
            })
        if self.has_branch:
            bound.update({
                "_bht": self.bht._counters,
                "_pred": cpu.predictor,
                "_wp": engine.wp,
            })
        bound.update({
            "_icache_fast": cpu.caches.instruction_access_fast,
            "_itlb_access": cpu.itlb.access,
        })
        return bound

    def _assemble(self):
        n = len(self.entries) * self.copies
        exit_pc = self.exit_pc
        bound = self._bindings()
        params = ["regs", "counters", "cycles", "last_iline", "last_ipage"]
        params += [f"{name}={name}" for name in bound]
        src = [f"def _blk({', '.join(params)}):"]
        if self.has_mem or (self.copies > 1 and self.exits):
            # The fault path, and a loop's exits, write back every
            # written register, so all of them must be bound, even
            # write-only ones.
            prologue_regs = self.touched
        else:
            # Write-only registers never need their stale values, and
            # ``pc`` is never consulted.
            prologue_regs = self.need_load
        for i in sorted(prologue_regs):
            src.append(f"    r{i} = regs[{i}]")
        if self.inline_i:
            src.append("    _n_ihit = 0")
        if self.has_mem:
            src.append(f"    pc = {self.entry_pc}")
            src.append("    _pi = 0")
            if self.copies > 1:
                src.append("    _it = 0")
            src.append("    _n_stall = 0")
            src.append("    _n_tlb = 0")
            src.append("    _tlb_last = _dtlb._last_page")
            if self.inline_l1:
                src.append("    _n_l1r = 0")
                src.append("    _n_l1w = 0")
            # Fault path: commit partial progress at the live mem-op
            # occurrence and sync the object out of line, re-raise.
            it_expr = "_it" if self.copies > 1 else "0"
            src.append("    try:")
            src += [f"        {line}" for line in self.lines]
            src.append("    except BaseException:")
            src.append(f"        _fe(_core(), _hw, counters, regs, "
                       f"_frows[_pi], {it_expr}, pc, cycles, last_iline, "
                       f"last_ipage, "
                       f"{self._vals(sorted(self.writes))}, "
                       f"{self._tally_args()})")
            src.append("        raise")
        else:
            # Blocks without memory ops cannot fault; with no writeback
            # having happened, an asynchronous exception rolls the whole
            # block back (the dispatcher's pc still points at the entry).
            src += [f"    {line}" for line in self.lines]
        ops, taken = self.copy_counts
        copies = self.copies
        src += [f"    _tally[{op}] += {n * copies}" for op, n in ops]
        conds = sum(n for op, n in ops if BEQ <= op <= BGEU)
        if conds:
            src.append(f"    _pred.conditional_predictions += "
                       f"{conds * copies}")
        fences = sum(n for op, n in ops if op == MFENCE)
        if fences:
            stall = int(self.costs[MFENCE]) * fences * copies
            src.append(f'    counters["fence_stall_cycles"] += {stall}')
        if taken:
            src.append(f'    counters["branches_taken"] += {taken * copies}')
        src += self._dyn_flush_lines("    ")
        src += self._writeback_lines("    ")
        src.append(f"    return {exit_pc}, {n}, cycles, "
                   "last_iline, last_ipage")
        return "\n".join(src) + "\n", bound, exit_pc


class SuperblockEngine:
    """Per-core block cache + heat table + translator.

    ``blocks`` maps an entry pc to either a ``(closure, length,
    exit_pc)`` tuple or ``0`` for entries that translation rejected
    (terminator first, or a run shorter than :data:`MIN_LENGTH`) — the
    0 sentinel keeps rejected pcs to a single dict probe per dispatch.
    """

    #: Entry-pc executions before translation triggers.  Deterministic
    #: (a pure visit count — no wall clock), so translation decisions
    #: are identical across hosts and backends.
    HOT_THRESHOLD = 16
    #: Runs shorter than this are not worth a call's overhead.
    MIN_LENGTH = 3
    #: Longest block; far below the watchdog stride (1024) so a block
    #: always fits inside one charge window.
    MAX_LENGTH = 64

    def __init__(self):
        self.blocks = {}
        self.heat = {}
        #: mispredict hand-off: a closure's side exit parks the
        #: wrong-path pc here and the dispatcher calls
        #: ``Cpu._mispredict`` after the block commits.
        self.wp = [None]
        #: generation cell, bumped by every flush; closures bind the
        #: cell, bake the value they were compiled under and compare
        #: after each store (SMC deopt).
        self.gen = [0]
        self.stats = {
            "translated": 0,
            "rejected": 0,
            "instructions_translated": 0,
            "invalidations": 0,
            "code_writes": 0,
            "side_exits": 0,
        }

    # -- invalidation --------------------------------------------------
    def flush(self):
        """Drop every block (in place — the dispatcher holds live refs)."""
        self.blocks.clear()
        self.heat.clear()
        self.gen[0] += 1
        self.stats["invalidations"] += 1

    def on_code_write(self, address, size):
        """Memory reported a store into an executable segment."""
        self.stats["code_writes"] += 1
        self.flush()

    # -- translation ---------------------------------------------------
    def _collect(self, cpu, pc):
        """The translatable superblock at *pc*: body, loop count, exit pc.

        Returns ``(entries, copies, exit_pc)`` where entries are
        ``(pc, decoded, taken)`` triples for ONE body.  Collection walks
        sequentially, follows direct ``JMP``s to their constant
        targets, follows each conditional branch in the direction its
        BHT counter predicts now (*taken*, which the codegen traces
        too), and stops at the first terminator, at a pc already in the
        trace, or at :data:`MAX_LENGTH`.  A trace that returns to its
        entry pc is a loop: *copies* says how many complete bodies fit
        under :data:`MAX_LENGTH` — the translator compiles the body
        once and runs it under a counted loop, amortising the closure's
        call/flush overhead over more retired instructions (side exits
        keep every iteration's branches architecturally exact).
        Decode-cache misses are decoded fresh but *not* cached:
        translation observes the code, step() owns the cache.
        """
        dcache = cpu._decode_cache
        memory = cpu.memory
        predict = cpu.predictor.bht.predict
        # A user-mode clflush leaves through its privilege check before
        # it retires, so one heading the trace would retire nothing.
        privileged = cpu.config.clflush_privileged
        entries = []
        seen = set()
        p = pc
        while len(entries) < self.MAX_LENGTH:
            if p in seen:
                if p == pc:
                    # The trace closed back on its entry: a loop.
                    return entries, self.MAX_LENGTH // len(entries), p
                # It entered a loop past its head: end the block there,
                # so the head is dispatched and compiles as the loop.
                break
            seen.add(p)
            entry = dcache.get(p)
            if entry is None:
                try:
                    entry = decode_entry(memory, p)
                except (MemoryFault, CpuFault):
                    break
            op = entry[0]
            if op == JMP:
                entries.append((p, entry, False))
                p = (p + entry[4]) & MASK32
                continue
            if BEQ <= op <= BGEU:
                taken = predict(p)
                entries.append((p, entry, taken))
                p = (p + entry[4]) & MASK32 if taken else entry[5]
                continue
            if not _translatable(op) or (
                    op == CLFLUSH and privileged and not entries):
                break
            entries.append((p, entry, False))
            nxt = p + INSTRUCTION_SIZE
            if nxt > MASK32:
                p = nxt & MASK32
                break
            p = nxt
        return entries, 1, p

    def translate(self, cpu, pc):
        """Translate *cpu*'s run at *pc*; returns the new ``blocks`` value.

        *cpu* is the core that owns this engine: passed in, not stored,
        so the core, its engine and the compiled blocks free by
        reference counting.
        """
        entries, copies, exit_pc = self._collect(cpu, pc)
        length = len(entries) * copies
        if length < self.MIN_LENGTH:
            self.heat.pop(pc, None)
            self.blocks[pc] = 0
            self.stats["rejected"] += 1
            return 0
        source, bound, exit_pc = _Codegen(
            cpu, self, pc, entries, copies, exit_pc
        ).build()
        namespace = dict(bound)
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            code = compile(source, f"<superblock {pc:#x}>", "exec")
            _CODE_CACHE[source] = code
        exec(code, namespace)
        # Popped, so the closure's globals do not hold the closure.
        block = (namespace.pop("_blk"), length, exit_pc)
        self.blocks[pc] = block
        # Interior pcs are no longer dispatched on the fall-through
        # path; drop their warmup heat so only real (branch-target)
        # entries re-accumulate it.
        for interior_pc, _, _ in entries:
            self.heat.pop(interior_pc, None)
        self.stats["translated"] += 1
        self.stats["instructions_translated"] += length
        return block
