"""Differential testing: every executor of the ISA vs an independent
reference interpreter.

The reference below is plain big-int Python written from the ISA
reference (docs/ISA.md); it imports nothing from ``repro.cpu`` or
``repro.isa.semantics``, so a wrong entry in the shared semantics
tables cannot hide behind itself.  Each generated ALU program runs in a
counted loop long enough for the superblock engine to translate it, and
its final registers must match the reference under ``--engine step``,
under the superblock engine (which must have translated the loop) and
on the out-of-order core, and each executor's per-opcode retire tally
must match the ops the reference retired, faulting runs included.  The
wrong-path case checks the values the speculative walk computes, on
both cores, through the one cache line each of them fills.  The fetch
locality case checks the L1I accesses each executor charges against
the line transitions of the reference pc stream, at line sizes other
than the default.  The memory case generates loops of loads, stores,
pushes, pops, calls and returns mixed with ALU ops, at in-range,
unaligned and unmapped addresses, and checks that the three executors
agree with each other: registers, the data region, the shared PMU
events and the fault type and pc.  The control case does the same for
loops of call chains deeper than the RSB, ``jmpr`` and ``callr`` whose
targets change between iterations, and the ops with a cycle cost, and
compares the branch-prediction events too.

The example budget comes from the hypothesis profile: the default keeps
tier-1 short, and ``--hypothesis-profile=ci`` runs a larger one.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.cpu.cpu import CpuConfig
from repro.cpu.engine import engine_override
from repro.cpu.pmu import EVENT_NAMES
from repro.errors import MemoryFault, PrivilegeFault, ReproError
from repro.isa.encoding import encode_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.kernel import System
from repro.mem.memory import Memory, PERM_R, PERM_W, PERM_X
from repro.uarch import make_core
from tests.cpu.test_speculation import _run

M32 = (1 << 32) - 1

_RRR_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.SRA, Opcode.SLT, Opcode.SLTU,
]
_RRI_OPS = [
    Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SHLI, Opcode.SHRI, Opcode.SRAI, Opcode.SLTI,
]
_ALL_OPS = _RRR_OPS + _RRI_OPS + [Opcode.LI, Opcode.MOV]

#: Register values at the edges of 32-bit arithmetic: zero divisors,
#: INT_MIN / -1, sign boundaries and shift amounts 31, 32 and 33.
EDGE_VALUES = (0, 1, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
#: Immediates at the same edges, negative ones included.
EDGE_IMMS = (0, 1, -1, 31, 32, 33, -5, -(2**31), 2**31 - 1)


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


def _trunc_divmod(a, b):
    """Signed division rounding toward zero, and its remainder."""
    sa, sb = _signed(a), _signed(b)
    quotient = sa // sb
    if quotient < 0 and quotient * sb != sa:
        quotient += 1  # floor -> toward zero
    return quotient, sa - sb * quotient


def reference_alu(op, a, b):
    """The value *op* writes: *a* is rs1's value, *b* rs2's value for
    a register-register op and the signed immediate otherwise."""
    name = op.name
    if name in ("ADD", "ADDI"):
        return (a + b) & M32
    if name == "SUB":
        return (a - b) & M32
    if name in ("MUL", "MULI"):
        return (a * b) & M32
    if name == "DIV":
        return M32 if b == 0 else _trunc_divmod(a, b)[0] & M32
    if name == "MOD":
        return a if b == 0 else _trunc_divmod(a, b)[1] & M32
    if name in ("AND", "ANDI"):
        return a & (b & M32)
    if name in ("OR", "ORI"):
        return a | (b & M32)
    if name in ("XOR", "XORI"):
        return a ^ (b & M32)
    if name in ("SHL", "SHLI"):
        return (a << (b % 32)) & M32
    if name in ("SHR", "SHRI"):
        return a >> (b % 32)
    if name in ("SRA", "SRAI"):
        return (_signed(a) >> (b % 32)) & M32
    if name == "SLT":
        return int(_signed(a) < _signed(b))
    if name == "SLTI":
        return int(_signed(a) < b)
    if name == "SLTU":
        return int(a < b)
    if name == "LI":
        return b & M32
    if name == "MOV":
        return a
    raise AssertionError(f"not an ALU op: {name}")


def _operands(insn, regs):
    rrr = insn.opcode in _RRR_OPS
    return regs[insn.rs1], (regs[insn.rs2] if rrr else insn.imm)


#: The loop counter; generated bodies never write it.
COUNTER = 15
#: Enough iterations for the loop head to get hot and be translated.
ITERATIONS = 24


def reference_tally(ops):
    """The per-opcode retire tally of the op sequence *ops*."""
    tally = [0] * 256
    for op, count in Counter(int(op) for op in ops).items():
        tally[op] = count
    return tally


def loop_ops(body, iterations=ITERATIONS):
    """The ops the loop :func:`_loop_program` builds retires, halt
    included, when its counter starts at *iterations*."""
    one = [insn.opcode for insn in body] + [Opcode.ADDI, Opcode.BNE]
    return one * iterations + [Opcode.HALT]


def reference_loop(body, initial_regs):
    """The registers after the loop :func:`_loop_program` builds ran
    from *initial_regs*."""
    regs = list(initial_regs)
    while True:
        for insn in body:
            value = reference_alu(insn.opcode, *_operands(insn, regs))
            if insn.rd != 0:
                regs[insn.rd] = value
        regs[COUNTER] = (regs[COUNTER] - 1) & M32
        if regs[COUNTER] == 0:
            return regs


def _loop_program(body):
    """``loop: body; addi r15, r15, -1; bne r15, r0, loop; halt``."""
    back = -8 * (len(body) + 1)
    return body + [
        Instruction(Opcode.ADDI, rd=COUNTER, rs1=COUNTER, imm=-1),
        Instruction(Opcode.BNE, rs1=COUNTER, rs2=0, imm=back),
        Instruction(Opcode.HALT),
    ]


def _machine(uarch, program, initial_regs, data_size=0, line_size=64,
             config=None):
    memory = Memory()
    blob = encode_program(program)
    memory.map_segment("text", 0x1000, max(4096, len(blob)),
                       PERM_R | PERM_X)
    memory.write_bytes(0x1000, blob, force=True)
    if data_size:
        memory.map_segment("data", 0x100000, data_size, PERM_R | PERM_W)
    caches = CacheHierarchy(CacheConfig(line_size=line_size))
    core = make_core(uarch, memory, caches=caches, config=config)
    for index, value in enumerate(initial_regs):
        core.state.write_reg(index, value)
    core.state.pc = 0x1000
    return core


#: ``(name, uarch, engine)`` of the three executors.
_EXECUTORS = (("step", "inorder", "step"), ("sb", "inorder", "sb"),
              ("ooo", "ooo", "sb"))


def run_everywhere(program, initial_regs, data_size=0, fault=None,
                   max_instructions=None, **machine):
    """Run *program* under step, sb and the OoO core; returns the cores.

    Each run must halt, retire *max_instructions* or, given *fault*,
    raise it.  Under sb the run
    must have translated at least one block, so the compiled code is
    what the comparison checks.  *machine* goes to :func:`_machine`.
    """
    cores = {}
    for name, uarch, engine in _EXECUTORS:
        with engine_override(engine):
            core = _machine(uarch, program, initial_regs, data_size,
                            **machine)
            if fault is None:
                retired = core.run(max_instructions)
                assert core.state.halted or retired == max_instructions, \
                    name
            else:
                with pytest.raises(fault):
                    core.run()
        cores[name] = core
    engine = cores["sb"]._sb
    assert engine is not None and engine.stats["translated"] > 0
    assert cores["step"]._sb is None
    return cores


_REGS = st.integers(min_value=0, max_value=15)
_DEST = st.integers(min_value=0, max_value=COUNTER - 1)
_IMM = st.one_of(st.sampled_from(EDGE_IMMS),
                 st.integers(min_value=-(2**31), max_value=2**31 - 1))
_VALUE = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.integers(min_value=0, max_value=M32))


def _alu_instruction(dest=_DEST):
    rrr = st.builds(
        lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1, rs2=rs2),
        st.sampled_from(_RRR_OPS), dest, _REGS, _REGS,
    )
    rri = st.builds(
        lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1, imm=imm),
        st.sampled_from(_RRI_OPS), dest, _REGS, _IMM,
    )
    li = st.builds(
        lambda rd, imm: Instruction(Opcode.LI, rd=rd, imm=imm),
        dest, _IMM,
    )
    mov = st.builds(
        lambda rd, rs1: Instruction(Opcode.MOV, rd=rd, rs1=rs1),
        dest, _REGS,
    )
    return st.one_of(rrr, rri, li, mov)


def _regs_strategy():
    # r0 is architectural zero; the counter starts at ITERATIONS.
    return st.lists(_VALUE, min_size=14, max_size=14).map(
        lambda values: [0] + values + [ITERATIONS]
    )


def _straight_line_run(instructions, initial_regs):
    core = _machine("inorder", instructions + [Instruction(Opcode.HALT)],
                    initial_regs)
    core.run()
    return list(core.state.regs)


class TestDifferential:
    @settings(deadline=None)
    @given(st.lists(_alu_instruction(), min_size=1, max_size=40),
           _regs_strategy())
    def test_cpu_matches_reference(self, body, initial):
        expected = reference_loop(body, initial)
        tally = reference_tally(loop_ops(body))
        for name, core in run_everywhere(_loop_program(body),
                                         initial).items():
            assert list(core.state.regs) == expected, name
            assert core.op_counts == tally, name

    @settings(deadline=None)
    @given(st.lists(_alu_instruction(_REGS), min_size=1, max_size=40))
    def test_cpu_is_deterministic(self, instructions):
        zeros = [0] * 16
        assert _straight_line_run(instructions, zeros) == \
            _straight_line_run(instructions, zeros)

    @settings(deadline=None)
    @given(st.lists(_alu_instruction(_REGS), min_size=1, max_size=20))
    def test_r0_always_zero(self, instructions):
        regs = _straight_line_run(instructions, [0] * 16)
        assert regs[0] == 0


def _edge_cases():
    """Every ALU op on the edge operands: ``(op, a, b)`` triples."""
    cases = [(op, a, b) for op in _RRR_OPS
             for a in EDGE_VALUES for b in EDGE_VALUES]
    cases += [(op, a, imm) for op in _RRI_OPS
              for a in EDGE_VALUES for imm in EDGE_IMMS]
    cases += [(Opcode.LI, 0, imm) for imm in EDGE_IMMS]
    cases += [(Opcode.MOV, a, 0) for a in EDGE_VALUES]
    return cases


class TestEdgeOperands:
    def test_every_op_on_edge_operands(self):
        """Each case loads its operands, computes and stores the result;
        the stored words must equal the reference on every executor.
        The loop makes every chunk of the body hot enough to translate.
        """
        cases = _edge_cases()
        body = []
        for index, (op, a, b) in enumerate(cases):
            body.append(Instruction(Opcode.LI, rd=1, imm=_signed(a)))
            if op in _RRR_OPS:
                body.append(Instruction(Opcode.LI, rd=2, imm=_signed(b)))
                body.append(Instruction(op, rd=3, rs1=1, rs2=2))
            else:
                body.append(Instruction(op, rd=3, rs1=1, imm=b))
            body.append(Instruction(Opcode.SW, rs1=4, rs2=3,
                                    imm=4 * index))
        initial = [0] * 16
        initial[4] = 0x100000
        initial[COUNTER] = ITERATIONS
        expected = [reference_alu(op, a, b) for op, a, b in cases]
        cores = run_everywhere(_loop_program(body), initial,
                               data_size=4 * len(cases))
        for name, core in cores.items():
            words = [core.memory.load_word(0x100000 + 4 * index)
                     for index in range(len(cases))]
            mismatches = [
                (op.name, hex(a), b, hex(got), hex(want))
                for (op, a, b), got, want in zip(cases, words, expected)
                if got != want
            ]
            assert not mismatches, (name, mismatches[:5])

    def test_reference_edges(self):
        """The reference itself, on the cases the ISA documents."""
        assert reference_alu(Opcode.DIV, 7, 0) == M32
        assert reference_alu(Opcode.MOD, 7, 0) == 7
        assert reference_alu(Opcode.DIV, 0x80000000, M32) == 0x80000000
        assert reference_alu(Opcode.MOD, 0x80000000, M32) == 0
        assert reference_alu(Opcode.DIV, (-7) & M32, 2) == (-3) & M32
        assert reference_alu(Opcode.MOD, (-7) & M32, 2) == (-1) & M32
        assert reference_alu(Opcode.SHL, 1, 33) == 2
        assert reference_alu(Opcode.SRAI, 0x80000000, 31) == M32
        assert reference_alu(Opcode.ANDI, M32, -1) == M32
        assert reference_alu(Opcode.SLTI, 0xFFFFFFFF, 0) == 1


#: A victim whose in-bounds body computes one ALU op on known values
#: and loads ``probe + (result & 0xF) * 64``; trained in bounds, then
#: struck out of bounds, so the strike runs the body only on the wrong
#: path (the pattern of tests/cpu/test_speculation.py).
_WRONG_PATH = """
main:
    li   a2, 6
train:
    beq  a2, zero, flush
    li   a0, 1
    call victim
    addi a2, a2, -1
    jmp  train
flush:
    la   t1, probe
{flushes}
    mfence
    li   a0, 1000
    call victim
    li   a0, 0
    call libc_exit

victim:
    la   t0, size
    lw   t0, 0(t0)
    bgeu a0, t0, victim_ret
{compute}
    andi t2, t2, 15
    shli t2, t2, 6
    la   t1, probe
    add  t1, t1, t2
    lw   t3, 0(t1)
victim_ret:
    ret

.data
size: .word 8
    .align 6
probe: .space 1024
"""

_WP_A = 0x9E3779B9
_WP_B = 0x0000002B
_WP_IMM = -0x12345


def _wrong_path_source(op):
    mnemonic = op.name.lower()
    if op in _RRR_OPS:
        compute = (f"    li   t2, {_WP_A:#x}\n    li   t3, {_WP_B:#x}\n"
                   f"    {mnemonic} t2, t2, t3")
    elif op == Opcode.LI:
        compute = f"    li   t2, {_WP_IMM}"
    elif op == Opcode.MOV:
        compute = f"    li   t3, {_WP_A:#x}\n    mov  t2, t3"
    else:
        compute = (f"    li   t2, {_WP_A:#x}\n"
                   f"    {mnemonic} t2, t2, {_WP_IMM}")
    flushes = "\n".join(f"    clflush {64 * line}(t1)" for line in range(16))
    return _WRONG_PATH.format(flushes=flushes, compute=compute)


def _wrong_path_line(op):
    if op in _RRR_OPS:
        value = reference_alu(op, _WP_A, _WP_B)
    elif op == Opcode.LI:
        value = reference_alu(op, 0, _WP_IMM)
    else:
        value = reference_alu(op, _WP_A, _WP_IMM)
    return value & 0xF


class TestWrongPathValues:
    @pytest.mark.parametrize("uarch", ["inorder", "ooo"])
    @pytest.mark.parametrize("op", _ALL_OPS, ids=lambda op: op.name)
    def test_wrong_path_fills_the_reference_line(self, op, uarch):
        process = _run(_wrong_path_source(op),
                       system=System(seed=9, uarch=uarch))
        assert process.exit_code == 0
        probe = process.image.address_of("probe")
        cached = [line for line in range(16)
                  if process.cpu.caches.probe_data(probe + 64 * line)]
        assert cached == [_wrong_path_line(op)]
        assert process.pmu.read()["spec_loads"] > 0


class TestRetireTally:
    """Every executor counts an op when it is fetched for commit, so a
    faulting op counts too: the tallies match the reference's ops up to
    and including the faulting one."""

    def test_faulting_load_inside_a_compiled_block(self):
        # The load walks off the end of the data segment on iteration
        # FAULT_AT, long after the loop was translated.
        fault_at = 20
        body = [
            Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
            Instruction(Opcode.LW, rd=3, rs1=4, imm=0),
            Instruction(Opcode.ADDI, rd=4, rs1=4, imm=64),
        ]
        initial = [0] * 16
        initial[4] = 0x100000
        initial[COUNTER] = ITERATIONS + fault_at
        cores = run_everywhere(_loop_program(body), initial,
                               data_size=64 * fault_at, fault=MemoryFault)
        ops = (loop_ops(body, fault_at)[:-1]
               + [Opcode.ADDI, Opcode.LW])
        for name, core in cores.items():
            assert core.op_counts == reference_tally(ops), name
            assert core.state.pc == 0x1008, name
            assert core.pmu.read()["load_instructions"] == fault_at + 1

    def test_privileged_clflush_fault(self):
        body = [Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1)] * 3
        program = _loop_program(body)
        program[-1] = Instruction(Opcode.CLFLUSH, rs1=0, imm=0)
        initial = [0] * 16
        initial[COUNTER] = ITERATIONS
        cores = run_everywhere(program, initial, fault=PrivilegeFault,
                               config=CpuConfig(clflush_privileged=True))
        ops = loop_ops(body)[:-1] + [Opcode.CLFLUSH]
        for name, core in cores.items():
            assert core.op_counts == reference_tally(ops), name
            assert core.pmu.read()["clflush_instructions"] == 1, name


class TestCosts:
    def test_privileged_clflush_faults_before_its_cost(self):
        """The fault leaves the cycles of a clflush that costs nothing
        beyond the base cost, whatever its ``clflush_latency``."""
        program = [Instruction(Opcode.CLFLUSH, rs1=0, imm=0),
                   Instruction(Opcode.HALT)]
        for uarch in ("inorder", "ooo"):
            cycles = set()
            for latency in (0.0, 6.0, 1000.0):
                core = _machine(uarch, program, [0] * 16, config=CpuConfig(
                    clflush_privileged=True, clflush_latency=latency))
                with pytest.raises(PrivilegeFault):
                    core.run()
                cycles.add(repr(core.cycles))
            assert len(cycles) == 1, uarch


def _fetch_lines(pcs, line_size):
    """L1I accesses of the pc stream *pcs*: one per change of line."""
    lines = [pc // line_size for pc in pcs]
    return sum(1 for index, line in enumerate(lines)
               if index == 0 or line != lines[index - 1])


class TestFetchLocality:
    """A fetch charges the L1I once per new line of the configured
    size, on every executor."""

    @pytest.mark.parametrize("line_size", [32, 128])
    def test_l1i_accesses_follow_line_size(self, line_size):
        # ``loop: 40 x addi; jmp loop``, stopped by the instruction
        # budget: no conditional branch, so no wrong path fetches.
        body = [Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1)] * 40
        program = body + [Instruction(Opcode.JMP, imm=-8 * len(body))]
        loop = [0x1000 + 8 * index for index in range(len(program))]
        pcs = loop * ITERATIONS
        cores = run_everywhere(program, [0] * 16,
                               max_instructions=len(pcs),
                               line_size=line_size)
        expected = _fetch_lines(pcs, line_size)
        readings = {name: core.pmu.read() for name, core in cores.items()}
        for name, reading in readings.items():
            assert reading["l1i_accesses"] == expected, name
        assert readings["sb"] == readings["step"]


#: The data segment :func:`_machine` maps, and where a memory program's
#: base register (r4) and stack pointer start inside it.
DATA = 0x100000
DATA_SIZE = 4096
BASE = DATA + 0x800
STACK = DATA + 0xC00
#: The instruction-mix events: both cores count these alike.
SHARED_EVENTS = EVENT_NAMES[:15]
#: Registers a generated memory op may write: not r0, the base r4, sp
#: or the loop counter.
_MEM_DEST = st.sampled_from([1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14])
#: Registers a push may store: any, ``push sp`` included, which stores
#: the decremented sp.
_PUSH_SRC = _REGS
#: Offsets from r4: in range and aligned, unaligned, or unmapped.
_OFFSET = st.one_of(
    st.integers(min_value=-0x200, max_value=0x1FF).map(lambda i: 4 * i),
    st.integers(min_value=-0x800, max_value=0x7FF),
    st.sampled_from([-0x100000, 0x7FF000, 0x10000000]),
)


def _memory_instruction():
    """One memory op, or a ``call`` placeholder :func:`_memory_program`
    points at the leaf."""
    loads = st.builds(
        lambda op, rd, imm: Instruction(op, rd=rd, rs1=4, imm=imm),
        st.sampled_from([Opcode.LW, Opcode.LB]), _MEM_DEST, _OFFSET)
    stores = st.builds(
        lambda op, rs2, imm: Instruction(op, rs1=4, rs2=rs2, imm=imm),
        st.sampled_from([Opcode.SW, Opcode.SB]), _REGS, _OFFSET)
    push = st.builds(lambda rs1: Instruction(Opcode.PUSH, rs1=rs1),
                     _PUSH_SRC)
    pop = st.builds(lambda rd: Instruction(Opcode.POP, rd=rd), _MEM_DEST)
    call = st.just(Instruction(Opcode.CALL))
    ret = st.just(Instruction(Opcode.RET))
    return st.one_of(loads, stores, push, pop, call, ret)


def _memory_program(body, stride):
    """``loop: body; addi r4, r4, stride; <counter>; halt; leaf: ret``.

    Each ``call`` in *body* calls the leaf, so it returns to its
    successor; the base register moves by *stride* per iteration, so
    in-range offsets leave the segment on a later iteration, after the
    loop was translated.
    """
    body = body + [Instruction(Opcode.ADDI, rd=4, rs1=4, imm=stride)]
    program = _loop_program(body)
    leaf = 8 * len(program)
    program = [
        Instruction(Opcode.CALL, imm=leaf - 8 * index)
        if insn.opcode == Opcode.CALL else insn
        for index, insn in enumerate(program)
    ]
    return program + [Instruction(Opcode.RET)]


def _memory_run(uarch, engine, program, initial, budget=4000):
    """Run *program* on one executor; returns the core and its fault."""
    with engine_override(engine):
        core = _machine(uarch, program, initial, data_size=DATA_SIZE)
        try:
            core.run(budget)
            fault = None
        except ReproError as exc:
            fault = type(exc)
    return core, fault


class TestMemoryPrograms:
    @settings(deadline=None)
    @given(st.lists(st.one_of(_memory_instruction(), _alu_instruction(
               _MEM_DEST)), min_size=1, max_size=20),
           st.sampled_from([0, 64, -64, 256]), _regs_strategy())
    def test_executors_agree(self, body, stride, initial):
        initial = list(initial)
        initial[4] = BASE
        initial[13] = STACK
        program = _memory_program(body, stride)
        runs = {name: _memory_run(uarch, engine, program, initial)
                for name, uarch, engine in _EXECUTORS}
        step, step_fault = runs["step"]
        step_pmu = step.pmu.read()
        for name, (core, fault) in runs.items():
            assert fault == step_fault, name
            assert core.state.pc == step.state.pc, name
            assert list(core.state.regs) == list(step.state.regs), name
            assert core.memory.read_bytes(DATA, DATA_SIZE) == \
                step.memory.read_bytes(DATA, DATA_SIZE), name
            pmu = core.pmu.read()
            assert [pmu[event] for event in SHARED_EVENTS] == \
                [step_pmu[event] for event in SHARED_EVENTS], name
        assert runs["sb"][0].pmu.read() == step_pmu
        assert repr(runs["sb"][0].cycles) == repr(step.cycles)

    def test_push_sp_stores_the_decremented_sp(self):
        body = [Instruction(Opcode.PUSH, rs1=13),
                Instruction(Opcode.POP, rd=1)]
        initial = [0] * 16
        initial[4] = BASE
        initial[13] = STACK
        initial[COUNTER] = ITERATIONS
        program = _memory_program(body, 0)
        for name, uarch, engine in _EXECUTORS:
            core, fault = _memory_run(uarch, engine, program, initial)
            assert fault is None, name
            assert core.state.regs[1] == STACK - 4, name


#: The branch-prediction events: both cores predict every committed
#: transfer alike.
PREDICTION_EVENTS = ("branch_mispredictions", "cond_branch_mispredictions",
                     "return_mispredictions", "indirect_mispredictions",
                     "btb_hits", "btb_misses", "rsb_overflows")
#: Where ``rdcycle`` writes in a control program: each core has its own
#: clock, so no other op reads it and only sb and step compare it.
CLOCK = 12
#: The depth counter of the recursive subroutine.
DEPTH = 5
#: Scratch of the indirect transfers: the selector and the target.
_SEL, _TGT = 7, 8
#: The accumulator the indirect targets update.
ACC = 9
_CTRL_DEST = st.sampled_from([1, 2, 3, 6, ACC, 10, 11, 14])
_CTRL_SRC = st.sampled_from([r for r in range(16) if r != CLOCK])
#: The ops :data:`repro.isa.semantics.COST` charges beyond the base cost,
#: bar ``syscall``, plus ``rdcycle``, which reads what they charged.
_COST_OPS = st.one_of(
    st.builds(lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1,
                                                   rs2=rs2),
              st.sampled_from([Opcode.MUL, Opcode.DIV, Opcode.MOD]),
              _CTRL_DEST, _CTRL_SRC, _CTRL_SRC),
    st.builds(lambda rd, rs1, imm: Instruction(Opcode.MULI, rd=rd, rs1=rs1,
                                               imm=imm),
              _CTRL_DEST, _CTRL_SRC, _IMM),
    st.just(Instruction(Opcode.MFENCE)),
    st.just(Instruction(Opcode.RDCYCLE, rd=CLOCK)),
    # A data line, or a code line of the text at 0x1000.
    st.builds(lambda imm: Instruction(Opcode.CLFLUSH, rs1=4, imm=imm),
              st.integers(min_value=-0x800, max_value=0x7FF)),
    st.builds(lambda imm: Instruction(Opcode.CLFLUSH, rs1=0, imm=imm),
              st.integers(min_value=0x1000, max_value=0x1400)),
)


def _control_item():
    """One piece of a control program: ``("op", instruction)``,
    ``("deep", depth)``, or ``("jmpr" | "callr", mask)``."""
    alu = st.builds(lambda op, rd, rs1, rs2, imm: Instruction(
        op, rd=rd, rs1=rs1, rs2=rs2 if op in _RRR_OPS else 0,
        imm=0 if op in _RRR_OPS else imm),
        st.sampled_from(_RRR_OPS + _RRI_OPS), _CTRL_DEST, _CTRL_SRC,
        _CTRL_SRC, _IMM)
    return st.one_of(
        st.tuples(st.just("op"), st.one_of(alu, _COST_OPS)),
        # Deeper than the 16-entry RSB.
        st.tuples(st.just("deep"), st.integers(min_value=17, max_value=20)),
        # The target changes with the loop counter: a BTB miss first,
        # then mispredicts.
        st.tuples(st.sampled_from(["jmpr", "callr"]), st.sampled_from([1, 3])),
    )


def _item_size(kind, arg):
    if kind == "jmpr":
        return 5 + 2 * (arg + 1)
    return {"op": 1, "deep": 2, "callr": 5}[kind]


def _control_program(items):
    """``loop: head; items; <counter>; halt; deep; subs``.

    A ``deep`` item recurses *depth* levels into ``deep: addi depth, -1;
    beq depth, zero, +16; call deep; ret``.  A ``jmpr`` item jumps to
    case ``counter & mask`` of an inline switch, each case adding to the
    accumulator and jumping past the switch; a ``callr`` item calls
    subroutine ``counter & mask`` of four that each update it and
    return.  The three-op head makes the loop translatable.
    """
    text = 0x1000
    head = [Instruction(Opcode.ADDI, rd=ACC, rs1=ACC, imm=1),
            Instruction(Opcode.XOR, rd=10, rs1=10, rs2=ACC),
            Instruction(Opcode.ADDI, rd=11, rs1=11, imm=3)]
    length = len(head) + sum(_item_size(*item) for item in items)
    deep = text + 8 * (length + 3)
    subs = deep + 32
    body = list(head)
    for kind, arg in items:
        pc = text + 8 * len(body)
        if kind == "op":
            body.append(arg)
        elif kind == "deep":
            body += [Instruction(Opcode.LI, rd=DEPTH, imm=arg),
                     Instruction(Opcode.CALL, imm=deep - pc - 8)]
        else:
            # _TGT + _SEL * 16 + imm: the case, or subroutine, selected.
            first = pc + 40 if kind == "jmpr" else subs
            body += [Instruction(Opcode.ANDI, rd=_SEL, rs1=COUNTER, imm=arg),
                     Instruction(Opcode.SHLI, rd=_SEL, rs1=_SEL, imm=4),
                     Instruction(Opcode.LI, rd=_TGT, imm=first - 16),
                     Instruction(Opcode.ADD, rd=_TGT, rs1=_TGT, rs2=_SEL)]
            if kind == "callr":
                body.append(Instruction(Opcode.CALLR, rs1=_TGT, imm=16))
                continue
            body.append(Instruction(Opcode.JMPR, rs1=_TGT, imm=16))
            join = first + 16 * (arg + 1)
            for case in range(arg + 1):
                at = first + 16 * case
                body += [Instruction(Opcode.ADDI, rd=ACC, rs1=ACC,
                                     imm=7 * case + 1),
                         Instruction(Opcode.JMP, imm=join - at - 8)]
    assert len(body) == length
    program = _loop_program(body)
    program += [
        Instruction(Opcode.ADDI, rd=DEPTH, rs1=DEPTH, imm=-1),
        Instruction(Opcode.BEQ, rs1=DEPTH, rs2=0, imm=16),
        Instruction(Opcode.CALL, imm=-16),
        Instruction(Opcode.RET),
        Instruction(Opcode.ADDI, rd=ACC, rs1=ACC, imm=5),
        Instruction(Opcode.RET),
        Instruction(Opcode.XORI, rd=ACC, rs1=ACC, imm=0x55),
        Instruction(Opcode.RET),
        Instruction(Opcode.MULI, rd=ACC, rs1=ACC, imm=3),
        Instruction(Opcode.RET),
        Instruction(Opcode.SHRI, rd=ACC, rs1=ACC, imm=1),
        Instruction(Opcode.RET),
    ]
    return program


def _control_runs(items, initial):
    """Run the control program of *items* on every executor and check
    that they agree; returns step's core."""
    initial = list(initial)
    initial[4] = BASE
    initial[DEPTH] = 0
    initial[CLOCK] = 0
    initial[13] = STACK
    program = _control_program(items)
    runs = {name: _memory_run(uarch, engine, program, initial, 20000)
            for name, uarch, engine in _EXECUTORS}
    step, step_fault = runs["step"]
    step_pmu = step.pmu.read()
    events = SHARED_EVENTS + PREDICTION_EVENTS
    for name, (core, fault) in runs.items():
        assert fault == step_fault, name
        assert core.state.pc == step.state.pc, name
        regs = list(core.state.regs)
        assert regs[:CLOCK] + regs[CLOCK + 1:] == \
            step.state.regs[:CLOCK] + step.state.regs[CLOCK + 1:], name
        assert core.memory.read_bytes(DATA, DATA_SIZE) == \
            step.memory.read_bytes(DATA, DATA_SIZE), name
        pmu = core.pmu.read()
        assert [pmu[event] for event in events] == \
            [step_pmu[event] for event in events], name
    sb = runs["sb"][0]
    # A clflush of code drops every block, so a loop that runs one
    # never gets hot enough to translate.
    if not any(kind == "op" and arg.opcode == Opcode.CLFLUSH and arg.rs1 == 0
               for kind, arg in items):
        assert sb._sb.stats["translated"] > 0
    assert sb.state.regs[CLOCK] == step.state.regs[CLOCK]
    assert sb.pmu.read() == step_pmu
    assert repr(sb.cycles) == repr(step.cycles)
    return step


class TestControlPrograms:
    """Generated loops of call chains deeper than the RSB, ``jmpr`` and
    ``callr`` whose targets change between iterations, and the ops with
    a cycle cost, agree on step, sb and the out-of-order core."""

    @settings(deadline=None)
    @given(st.lists(_control_item(), min_size=1, max_size=10),
           _regs_strategy())
    def test_executors_agree(self, items, initial):
        _control_runs(items, initial)

    def test_reaches_the_predictor_edges(self):
        items = [("deep", 20), ("jmpr", 3), ("callr", 1),
                 ("op", Instruction(Opcode.DIV, rd=1, rs1=ACC, rs2=11)),
                 ("op", Instruction(Opcode.MFENCE)),
                 ("op", Instruction(Opcode.CLFLUSH, rs1=4, imm=64)),
                 ("op", Instruction(Opcode.RDCYCLE, rd=CLOCK))]
        initial = [0] * 15 + [ITERATIONS]
        step = _control_runs(items, initial)
        pmu = step.pmu.read()
        for event in ("rsb_overflows", "return_mispredictions", "btb_misses",
                      "indirect_mispredictions"):
            assert pmu[event] > 0, event
        assert step.state.halted
