"""The ISA's value semantics, defined once.

Every executor of the ISA — the in-order core's ``step()``, the shared
wrong-path walk, the superblock code generator and the out-of-order
core — reads its opcodes, ALU results, branch conditions and decoded
instructions from this module, so the wrong path computes exactly the
values the committed path would and only the effects differ.

* The plain-int opcode constants (``ADD``, ``LW``, ...) are derived
  from :class:`~repro.isa.opcodes.Opcode`, so dispatch compares ints
  and never touches the enum.
* :data:`VALUE` holds one Python expression template per value-producing
  op (the 13 register-register ops, the 9 register-immediate ops, ``LI``
  and ``MOV``) over ``{a}`` — rs1's value — and ``{b}`` — rs2's value
  or the raw signed immediate.  :data:`COND` holds one template per
  conditional branch over rs1's and rs2's values.  The superblock
  code generator fills them with register names.
* :data:`ALU` and :data:`TAKEN` are the same templates compiled once, at
  import, into functions indexed by opcode: ``ALU[op](a, b)`` and
  ``TAKEN[op](a, b)``.
* :func:`decode_entry` turns the instruction word at a pc into the one
  dispatch entry both cores cache.
* :data:`EVENTS` names the instruction-mix PMU events each op bumps when
  it retires.  The cores only count retired ops, per opcode; the PMU
  derives the mix from that tally through this table.
* :data:`MEMORY` holds the data-memory access of each op that makes
  one: its size, its direction and its address form — ``rs1 + imm``,
  or the stack pointer, pre-decremented by a push and post-incremented
  by a pop.  The stack word of ``call``/``callr``/``ret`` is in it too.
* :data:`WRONG_PATH` names, beside it, where the wrong-path walk's
  access departs from the committed path's: which ops touch the D-TLB
  and the L1D there, and which are speculative loads (docs/MICROARCH.md,
  "Wrong-path memory model").
"""

from repro.errors import CpuFault, EncodingError
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Opcode

MASK32 = 0xFFFFFFFF

(NOP, HALT,
 ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SRA, SLT, SLTU,
 ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SRAI, SLTI, LI, MOV,
 LW, LB, SW, SB, PUSH, POP,
 BEQ, BNE, BLT, BGE, BLTU, BGEU, JMP, JMPR, CALL, CALLR, RET,
 SYSCALL, CLFLUSH, MFENCE, RDCYCLE, RDINSTRET) = map(int, Opcode)

assert all(globals()[op.name] == op for op in Opcode), (
    "dispatch constants out of step with the Opcode definition")


def truncdiv(a, b):
    """C-style division of two nonzero-divisor 32-bit words.

    Both are read as signed; returns the quotient rounded toward zero
    and the remainder with the dividend's sign, each as a 32-bit word.
    """
    sa = a - 4294967296 if a > 2147483647 else a
    sb = b - 4294967296 if b > 2147483647 else b
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & MASK32, (sa - sb * quotient) & MASK32


def _signed(operand):
    return f"({operand} - 4294967296 if {operand} > 2147483647 else {operand})"


_SA = _signed("{a}")
_SB = _signed("{b}")

#: Result of each value-producing op, over ``{a}`` (rs1's value) and
#: ``{b}`` (rs2's value for the register-register ops, the raw signed
#: immediate otherwise).  Shift amounts use the low 5 bits; ``DIV`` by
#: zero yields all ones and ``MOD`` by zero the dividend.
VALUE = {
    ADD: "({a} + {b}) & 4294967295",
    SUB: "({a} - {b}) & 4294967295",
    MUL: "({a} * {b}) & 4294967295",
    DIV: "4294967295 if {b} == 0 else truncdiv({a}, {b})[0]",
    MOD: "{a} if {b} == 0 else truncdiv({a}, {b})[1]",
    AND: "{a} & {b}",
    OR: "{a} | {b}",
    XOR: "{a} ^ {b}",
    SHL: "({a} << ({b} & 31)) & 4294967295",
    SHR: "{a} >> ({b} & 31)",
    SRA: f"({_SA} >> ({{b}} & 31)) & 4294967295",
    SLT: f"1 if {_SA} < {_SB} else 0",
    SLTU: "1 if {a} < {b} else 0",
    ADDI: "({a} + {b}) & 4294967295",
    MULI: "({a} * {b}) & 4294967295",
    ANDI: "{a} & ({b} & 4294967295)",
    ORI: "{a} | ({b} & 4294967295)",
    XORI: "{a} ^ ({b} & 4294967295)",
    SHLI: "({a} << ({b} & 31)) & 4294967295",
    SHRI: "{a} >> ({b} & 31)",
    SRAI: f"({_SA} >> ({{b}} & 31)) & 4294967295",
    SLTI: f"1 if {_SA} < {{b}} else 0",
    LI: "{b} & 4294967295",
    MOV: "{a}",
}

#: Whether each conditional branch is taken, over rs1's and rs2's values.
COND = {
    BEQ: "{a} == {b}",
    BNE: "{a} != {b}",
    BLT: f"{_SA} < {_SB}",
    BGE: f"{_SA} >= {_SB}",
    BLTU: "{a} < {b}",
    BGEU: "{a} >= {b}",
}


def _compile(templates):
    table = [None] * 256
    for op, template in templates.items():
        table[op] = eval(  # noqa: S307 - fixed templates, no input
            "lambda a, b: " + template.format(a="a", b="b"),
            {"truncdiv": truncdiv},
        )
    return tuple(table)


#: ``ALU[op](a, b)``: the 32-bit result of a :data:`VALUE` op.
ALU = _compile(VALUE)
#: ``TAKEN[op](a, b)``: whether a :data:`COND` branch is taken.
TAKEN = _compile(COND)


_ALU = ("alu_instructions",)
_MUL_DIV = _ALU + ("mul_div_instructions",)
_BRANCH = ("branch_instructions",)
_CALL = _BRANCH + ("call_instructions",)

#: The instruction-mix PMU events one retired op bumps, beyond
#: ``instructions``, which every op bumps.  An op counts when it is
#: fetched for commit, before it executes, so one that faults or halts
#: counts too.
EVENTS = {
    NOP: (),
    HALT: (),
    **dict.fromkeys((ADD, SUB, AND, OR, XOR, SHL, SHR, SRA, SLT, SLTU,
                     ADDI, ANDI, ORI, XORI, SHLI, SHRI, SRAI, SLTI, LI,
                     MOV, RDCYCLE, RDINSTRET), _ALU),
    **dict.fromkeys((MUL, DIV, MOD, MULI), _MUL_DIV),
    LW: ("load_instructions",),
    LB: ("load_instructions",),
    SW: ("store_instructions",),
    SB: ("store_instructions",),
    PUSH: ("stack_instructions",),
    POP: ("stack_instructions",),
    **dict.fromkeys((BEQ, BNE, BLT, BGE, BLTU, BGEU),
                    _BRANCH + ("cond_branch_instructions",)),
    JMP: _BRANCH,
    JMPR: _BRANCH + ("indirect_jump_instructions",),
    CALL: _CALL,
    CALLR: _CALL + ("indirect_jump_instructions",),
    RET: _BRANCH + ("ret_instructions",),
    SYSCALL: ("syscall_instructions",),
    CLFLUSH: ("clflush_instructions",),
    MFENCE: ("mfence_instructions",),
}

assert sorted(EVENTS) == sorted(map(int, Opcode)), (
    "every opcode needs its PMU mix events")


#: The data-memory access of each op that makes one: ``(size, write,
#: sp)``.  *sp* is the address form: 0 for ``rs1 + imm``; -4 for a push
#: form, whose address is sp - 4, written back to sp before the access;
#: +4 for a pop form, which accesses sp and adds 4 after it.  A write
#: stores rs2 (``sw``/``sb``), rs1 (``push``) or the return address
#: (``call``/``callr``); a read writes rd, or the pc (``ret``).  Word
#: accesses must be 4-aligned.
MEMORY = {
    LW: (4, False, 0),
    LB: (1, False, 0),
    SW: (4, True, 0),
    SB: (1, True, 0),
    PUSH: (4, True, -4),
    POP: (4, False, 4),
    CALL: (4, True, -4),
    CALLR: (4, True, -4),
    RET: (4, False, 4),
}

#: Where the wrong-path walk's access departs from the committed path's,
#: which touches the D-TLB and the L1D for every :data:`MEMORY` op:
#: ``(dtlb, l1d, load)``.  *dtlb* and *l1d*: whether the walk touches
#: them (``push``/``pop`` skip the D-TLB; ``call``/``callr`` write only
#: the store buffer and ``ret`` only reads).  *load*: a speculative load,
#: counted in ``spec_loads`` (and ``spec_cache_fills`` when it fills from
#: memory), which touches the caches before it reads, so a faulting one
#: still fills (a ``pop`` reads first), and which
#: ``invisible_speculation`` hides; stores, pushes and pops stay visible.
WRONG_PATH = {
    LW: (True, True, True),
    LB: (True, True, True),
    SW: (True, True, False),
    SB: (True, True, False),
    PUSH: (False, True, False),
    POP: (False, True, False),
    CALL: (False, False, False),
    CALLR: (False, False, False),
    RET: (False, False, False),
}

assert sorted(WRONG_PATH) == sorted(MEMORY), (
    "every memory op needs its wrong-path entry")


def decode_entry(memory, pc):
    """The dispatch entry of the instruction at *pc*.

    ``(op, rd, rs1, rs2, imm, next_pc)``: *op* a plain int, *imm* the
    raw signed immediate and *next_pc* the fall-through pc.  A fetch
    fault propagates; an illegal encoding is a :class:`CpuFault`.
    """
    blob = memory.fetch(pc, INSTRUCTION_SIZE)
    try:
        instruction = decode(blob)
    except EncodingError as exc:
        raise CpuFault(f"illegal instruction at {pc:#010x}: {exc}")
    return (int(instruction.opcode), instruction.rd, instruction.rs1,
            instruction.rs2, instruction.imm,
            (pc + INSTRUCTION_SIZE) & MASK32)
