"""Two-pass assembler for the toy RISC ISA.

Accepted syntax (one statement per line; ``;`` or ``#`` start a comment)::

    .text                   ; switch to the text section (default)
    .data                   ; switch to the data section
    .align 6                ; pad current section to a 2^6 boundary
    .space 128              ; reserve zeroed bytes (data only)
    .word 1, 0x2A, label    ; 32-bit little-endian words (labels relocate)
    .byte 65, 'B', 0x43     ; raw bytes
    .ascii "text"           ; string bytes, no terminator
    .asciiz "text"          ; NUL-terminated string
    .entry main             ; override the entry symbol (default "main")

    main:                   ; labels end with ':'
        li   t0, 10
        la   a0, message    ; pseudo-instruction: LI with a relocation
        lw   t1, 4(sp)
        beq  t0, zero, done
        call helper
    done:
        ret

Branch / ``jmp`` / ``call`` targets are resolved to PC-relative byte
offsets, so text is position independent; ``la`` and ``.word label`` emit
relocations patched by the loader.
"""

import re
import struct

from repro.errors import AssemblerError
from repro.isa.encoding import INSTRUCTION_SIZE, encode_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import MNEMONICS, OPCODE_FORMATS, Opcode
from repro.isa.program import DATA, Program, Relocation, Symbol, TEXT
from repro.isa.registers import parse_register

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):(.*)$")
_MEM_OPERAND_RE = re.compile(r"^(-?[\w'+]*)\((\w+)\)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")


def _strip_comment(line):
    """Drop a ``;`` or ``#`` comment that is outside string literals."""
    if '"' not in line:
        return line.split(";", 1)[0].split("#", 1)[0].strip()
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch in ";#" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _split_operands(text):
    """Split an operand list on commas that are outside string literals."""
    if '"' not in text:
        return [p for p in map(str.strip, text.split(",")) if p]
    parts = []
    current = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "," and not in_string:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_int(token):
    """Parse an integer literal: decimal, hex, binary or a char like 'A'."""
    token = token.strip()
    if len(token) == 3 and token[0] == "'" and token[2] == "'":
        return ord(token[1])
    try:
        return int(token, 0)
    except ValueError:
        raise ValueError(f"not an integer literal: {token!r}")


class _Statement:
    """One source line after pass 1: either an instruction or data bytes."""

    __slots__ = ("kind", "mnemonic", "operands", "payload", "line_number", "line")

    def __init__(self, kind, line_number, line, mnemonic=None, operands=None,
                 payload=None):
        self.kind = kind
        self.mnemonic = mnemonic
        self.operands = operands
        self.payload = payload
        self.line_number = line_number
        self.line = line


class Assembler:
    """Two-pass assembler producing relocatable :class:`Program` images."""

    def __init__(self, name="a.out"):
        self.name = name

    def assemble(self, source):
        """Assemble *source* text into a :class:`Program`."""
        symbols = {}
        self._symbols = symbols  # directive handlers may rebind labels
        relocations = []
        entry = "main"

        # ---- pass 1: layout -------------------------------------------
        section = TEXT
        offsets = {TEXT: 0, DATA: 0}
        statements = []  # (section, offset, _Statement)

        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label, line = match.group(1), match.group(2).strip()
                if label in symbols:
                    raise AssemblerError(
                        f"duplicate label {label!r}", line_number, raw
                    )
                symbols[label] = Symbol(label, section, offsets[section])
            if not line:
                continue

            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.lower()
            operands = _split_operands(rest)

            if mnemonic.startswith("."):
                section, entry = self._directive_pass1(
                    mnemonic, operands, section, offsets, statements,
                    entry, line_number, raw,
                )
                continue

            if section != TEXT:
                raise AssemblerError(
                    "instructions are only allowed in .text", line_number, raw
                )
            size = INSTRUCTION_SIZE * self._instruction_count(
                mnemonic, line_number, raw
            )
            statements.append((
                section,
                offsets[section],
                _Statement("insn", line_number, raw, mnemonic, operands),
            ))
            offsets[section] += size

        # ---- pass 2: encode -------------------------------------------
        text = bytearray(offsets[TEXT])
        data = bytearray(offsets[DATA])
        buffers = {TEXT: text, DATA: data}
        for section_name, offset, statement in statements:
            if statement.kind == "insn":
                encoded = self._encode_instruction(
                    statement, offset, symbols, relocations
                )
                text[offset:offset + len(encoded)] = encoded
            elif statement.kind == "bytes":
                blob = statement.payload
                buffers[section_name][offset:offset + len(blob)] = blob
            elif statement.kind == "words":
                self._encode_words(
                    statement, section_name, offset, buffers[section_name],
                    symbols, relocations,
                )
            else:
                raise AssertionError(statement.kind)

        if entry not in symbols and offsets[TEXT]:
            # Fall back to the first text byte so raw snippets still run.
            symbols.setdefault(entry, Symbol(entry, TEXT, 0))
        return Program(
            name=self.name,
            text=bytes(text),
            data=bytes(data),
            symbols=symbols,
            relocations=relocations,
            entry=entry,
        )

    # ------------------------------------------------------------------
    def _directive_pass1(self, mnemonic, operands, section, offsets,
                         statements, entry, line_number, raw):
        if mnemonic == ".text":
            return TEXT, entry
        if mnemonic == ".data":
            return DATA, entry
        if mnemonic == ".entry":
            if len(operands) != 1:
                raise AssemblerError(".entry takes one symbol", line_number, raw)
            return section, operands[0]
        if mnemonic == ".align":
            if len(operands) != 1:
                raise AssemblerError(".align takes one power", line_number, raw)
            power = _parse_int(operands[0])
            alignment = 1 << power
            pad = (-offsets[section]) % alignment
            if pad:
                statements.append((
                    section, offsets[section],
                    _Statement("bytes", line_number, raw, payload=bytes(pad)),
                ))
                offsets[section] += pad
            return section, entry
        if mnemonic == ".space":
            if len(operands) != 1:
                raise AssemblerError(".space takes one size", line_number, raw)
            size = _parse_int(operands[0])
            if size < 0:
                raise AssemblerError("negative .space", line_number, raw)
            statements.append((
                section, offsets[section],
                _Statement("bytes", line_number, raw, payload=bytes(size)),
            ))
            offsets[section] += size
            return section, entry
        if mnemonic == ".byte":
            payload = bytes(_parse_int(op) & 0xFF for op in operands)
            statements.append((
                section, offsets[section],
                _Statement("bytes", line_number, raw, payload=payload),
            ))
            offsets[section] += len(payload)
            return section, entry
        if mnemonic in (".ascii", ".asciiz"):
            joined = ",".join(operands)
            if not (joined.startswith('"') and joined.endswith('"')):
                raise AssemblerError(
                    f"{mnemonic} needs a quoted string", line_number, raw
                )
            literal = joined[1:-1]
            payload = (
                literal.encode("utf-8")
                .decode("unicode_escape")
                .encode("latin-1")
            )
            if mnemonic == ".asciiz":
                payload += b"\x00"
            statements.append((
                section, offsets[section],
                _Statement("bytes", line_number, raw, payload=payload),
            ))
            offsets[section] += len(payload)
            return section, entry
        if mnemonic == ".word":
            pad = (-offsets[section]) % 4  # .word data self-aligns
            if pad:
                # Labels already bound to the unaligned offset move with
                # the data they were meant to name.
                for name, symbol in list(self._symbols.items()):
                    if (symbol.section == section
                            and symbol.offset == offsets[section]):
                        self._symbols[name] = Symbol(
                            name, section, symbol.offset + pad
                        )
                statements.append((
                    section, offsets[section],
                    _Statement("bytes", line_number, raw, payload=bytes(pad)),
                ))
                offsets[section] += pad
            statements.append((
                section, offsets[section],
                _Statement("words", line_number, raw, operands=operands),
            ))
            offsets[section] += 4 * len(operands)
            return section, entry
        raise AssemblerError(f"unknown directive {mnemonic}", line_number, raw)

    def _instruction_count(self, mnemonic, line_number, raw):
        if mnemonic in ("la",) or mnemonic in MNEMONICS:
            return 1
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_number, raw)

    # ------------------------------------------------------------------
    def _resolve_value(self, token, symbols):
        """Resolve an integer literal or ``symbol[+offset]`` expression.

        Returns ``(value_or_none, symbol_or_none, addend)``.
        """
        token = token.strip()
        try:
            return _parse_int(token), None, 0
        except ValueError:
            pass
        base, plus, rest = token.partition("+")
        addend = _parse_int(rest) if plus else 0
        if not _SYMBOL_RE.match(base):
            raise ValueError(f"bad operand {token!r}")
        if base not in symbols:
            raise ValueError(f"undefined symbol {base!r}")
        return None, base, addend

    def _encode_instruction(self, statement, offset, symbols, relocations):
        mnemonic, operands = statement.mnemonic, statement.operands
        line_number, raw = statement.line_number, statement.line
        try:
            if mnemonic == "la":
                return self._encode_la(operands, offset, symbols, relocations)
            opcode = MNEMONICS[mnemonic]
            fmt = OPCODE_FORMATS[opcode]
            builder = getattr(self, "_fmt_" + fmt.value)
            instruction = builder(opcode, operands, offset, symbols)
        except AssemblerError:
            raise
        except (ValueError, KeyError, IndexError) as exc:
            raise AssemblerError(str(exc), line_number, raw)
        return encode_program([instruction])

    def _encode_la(self, operands, offset, symbols, relocations):
        if len(operands) != 2:
            raise ValueError("la takes rd, symbol")
        rd = parse_register(operands[0])
        value, symbol, addend = self._resolve_value(operands[1], symbols)
        if symbol is None:
            instruction = Instruction(Opcode.LI, rd=rd, imm=_signed32(value))
            return encode_program([instruction])
        relocations.append(Relocation(TEXT, offset + 4, symbol, addend))
        instruction = Instruction(Opcode.LI, rd=rd, imm=0)
        return encode_program([instruction])

    def _encode_words(self, statement, section, offset, buffer, symbols,
                      relocations):
        tokens = statement.operands
        try:
            # Fast path: a line of integer literals packs in one call.
            # A symbol or a char literal fails int() and takes the
            # per-token path below.
            values = [int(token, 0) & 0xFFFFFFFF for token in tokens]
        except ValueError:
            pass
        else:
            struct.pack_into(f"<{len(values)}I", buffer, offset, *values)
            return
        for index, token in enumerate(tokens):
            field = offset + 4 * index
            try:
                value, symbol, addend = self._resolve_value(token, symbols)
            except ValueError as exc:
                raise AssemblerError(
                    str(exc), statement.line_number, statement.line
                )
            if symbol is not None:
                relocations.append(Relocation(section, field, symbol, addend))
                value = 0
            struct.pack_into("<I", buffer, field, value & 0xFFFFFFFF)

    # ---- per-format operand parsers ----------------------------------
    def _branch_target(self, token, offset, symbols):
        value, symbol, addend = self._resolve_value(token, symbols)
        if symbol is not None:
            target = symbols[symbol]
            if target.section != TEXT:
                raise ValueError(f"branch target {symbol!r} not in .text")
            return target.offset + addend - offset
        return value

    def _fmt_none(self, opcode, operands, offset, symbols):
        if operands:
            raise ValueError(f"{opcode.name.lower()} takes no operands")
        return Instruction(opcode)

    def _fmt_rrr(self, opcode, operands, offset, symbols):
        if len(operands) != 3:
            raise ValueError(f"{opcode.name.lower()} takes rd, rs1, rs2")
        return Instruction(
            opcode,
            rd=parse_register(operands[0]),
            rs1=parse_register(operands[1]),
            rs2=parse_register(operands[2]),
        )

    def _fmt_rri(self, opcode, operands, offset, symbols):
        if len(operands) != 3:
            raise ValueError(f"{opcode.name.lower()} takes rd, rs1, imm")
        return Instruction(
            opcode,
            rd=parse_register(operands[0]),
            rs1=parse_register(operands[1]),
            imm=_signed32(_parse_int(operands[2])),
        )

    def _fmt_ri(self, opcode, operands, offset, symbols):
        if len(operands) != 2:
            raise ValueError(f"{opcode.name.lower()} takes rd, imm")
        return Instruction(
            opcode,
            rd=parse_register(operands[0]),
            imm=_signed32(_parse_int(operands[1])),
        )

    def _fmt_rr(self, opcode, operands, offset, symbols):
        if len(operands) != 2:
            raise ValueError(f"{opcode.name.lower()} takes rd, rs1")
        return Instruction(
            opcode,
            rd=parse_register(operands[0]),
            rs1=parse_register(operands[1]),
        )

    def _fmt_r_src(self, opcode, operands, offset, symbols):
        if len(operands) != 1:
            raise ValueError(f"{opcode.name.lower()} takes one register")
        return Instruction(opcode, rs1=parse_register(operands[0]))

    def _fmt_r_dst(self, opcode, operands, offset, symbols):
        if len(operands) != 1:
            raise ValueError(f"{opcode.name.lower()} takes one register")
        return Instruction(opcode, rd=parse_register(operands[0]))

    def _parse_mem(self, token):
        match = _MEM_OPERAND_RE.match(token.replace(" ", ""))
        if not match:
            raise ValueError(f"bad memory operand {token!r}")
        imm_text, reg_text = match.groups()
        imm = _parse_int(imm_text) if imm_text else 0
        return imm, parse_register(reg_text)

    def _fmt_mem_load(self, opcode, operands, offset, symbols):
        if len(operands) != 2:
            raise ValueError(f"{opcode.name.lower()} takes rd, imm(rs1)")
        imm, rs1 = self._parse_mem(operands[1])
        return Instruction(
            opcode, rd=parse_register(operands[0]), rs1=rs1, imm=imm
        )

    def _fmt_mem_store(self, opcode, operands, offset, symbols):
        if len(operands) != 2:
            raise ValueError(f"{opcode.name.lower()} takes rs2, imm(rs1)")
        imm, rs1 = self._parse_mem(operands[1])
        return Instruction(
            opcode, rs2=parse_register(operands[0]), rs1=rs1, imm=imm
        )

    def _fmt_mem_addr(self, opcode, operands, offset, symbols):
        if len(operands) != 1:
            raise ValueError(f"{opcode.name.lower()} takes imm(rs1)")
        imm, rs1 = self._parse_mem(operands[0])
        return Instruction(opcode, rs1=rs1, imm=imm)

    def _fmt_branch(self, opcode, operands, offset, symbols):
        if len(operands) != 3:
            raise ValueError(f"{opcode.name.lower()} takes rs1, rs2, target")
        return Instruction(
            opcode,
            rs1=parse_register(operands[0]),
            rs2=parse_register(operands[1]),
            imm=self._branch_target(operands[2], offset, symbols),
        )

    def _fmt_jump(self, opcode, operands, offset, symbols):
        if len(operands) != 1:
            raise ValueError(f"{opcode.name.lower()} takes one target")
        return Instruction(
            opcode, imm=self._branch_target(operands[0], offset, symbols)
        )

    def _fmt_jr(self, opcode, operands, offset, symbols):
        if len(operands) not in (1, 2):
            raise ValueError(f"{opcode.name.lower()} takes rs1[, imm]")
        imm = _parse_int(operands[1]) if len(operands) == 2 else 0
        return Instruction(opcode, rs1=parse_register(operands[0]), imm=imm)


def _signed32(value):
    """Wrap an arbitrary integer into the signed 32-bit immediate range."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def assemble(source, name="a.out"):
    """Convenience wrapper: assemble *source* into a :class:`Program`."""
    return Assembler(name=name).assemble(source)
