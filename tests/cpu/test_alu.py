"""ALU semantics: hypothesis properties of the ``ALU``/``TAKEN`` tables
against Python reference math."""

from hypothesis import given, strategies as st

from repro.cpu.state import to_signed
from repro.isa.opcodes import Opcode
from repro.isa.semantics import ALU, TAKEN

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
imm32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestRrrSemantics:
    @given(u32, u32)
    def test_add_wraps(self, a, b):
        assert ALU[Opcode.ADD](a, b) == (a + b) & 0xFFFFFFFF

    @given(u32, u32)
    def test_sub_wraps(self, a, b):
        assert ALU[Opcode.SUB](a, b) == (a - b) & 0xFFFFFFFF

    @given(u32, u32)
    def test_mul_wraps(self, a, b):
        assert ALU[Opcode.MUL](a, b) == (a * b) & 0xFFFFFFFF

    @given(u32, u32)
    def test_logic_ops(self, a, b):
        assert ALU[Opcode.AND](a, b) == a & b
        assert ALU[Opcode.OR](a, b) == a | b
        assert ALU[Opcode.XOR](a, b) == a ^ b

    @given(u32, u32)
    def test_shifts_use_low_5_bits(self, a, b):
        shift = b & 31
        assert ALU[Opcode.SHL](a, b) == (a << shift) & 0xFFFFFFFF
        assert ALU[Opcode.SHR](a, b) == a >> shift
        assert ALU[Opcode.SRA](a, b) == \
            (to_signed(a) >> shift) & 0xFFFFFFFF

    @given(u32, u32)
    def test_div_truncates_toward_zero(self, a, b):
        result = ALU[Opcode.DIV](a, b)
        if b == 0:
            assert result == 0xFFFFFFFF
        else:
            sa, sb = to_signed(a), to_signed(b)
            expected = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                expected = -expected
            assert result == expected & 0xFFFFFFFF

    @given(u32, u32)
    def test_mod_identity(self, a, b):
        """C identity: a == (a/b)*b + a%b (32-bit, truncating)."""
        if b == 0:
            assert ALU[Opcode.MOD](a, b) == a
            return
        q = to_signed(ALU[Opcode.DIV](a, b))
        r = to_signed(ALU[Opcode.MOD](a, b))
        assert (q * to_signed(b) + r) & 0xFFFFFFFF == a

    @given(u32, u32)
    def test_comparisons(self, a, b):
        assert ALU[Opcode.SLT](a, b) == \
            (1 if to_signed(a) < to_signed(b) else 0)
        assert ALU[Opcode.SLTU](a, b) == (1 if a < b else 0)


class TestRriSemantics:
    @given(u32, imm32)
    def test_addi(self, a, imm):
        assert ALU[Opcode.ADDI](a, imm) == (a + imm) & 0xFFFFFFFF

    @given(u32, imm32)
    def test_logic_imm_masks(self, a, imm):
        masked = imm & 0xFFFFFFFF
        assert ALU[Opcode.ANDI](a, imm) == a & masked
        assert ALU[Opcode.ORI](a, imm) == a | masked
        assert ALU[Opcode.XORI](a, imm) == a ^ masked

    @given(u32, st.integers(min_value=0, max_value=31))
    def test_shift_immediates(self, a, shift):
        assert ALU[Opcode.SHLI](a, shift) == (a << shift) & 0xFFFFFFFF
        assert ALU[Opcode.SHRI](a, shift) == a >> shift

    @given(u32, imm32)
    def test_slti(self, a, imm):
        assert ALU[Opcode.SLTI](a, imm) == \
            (1 if to_signed(a) < imm else 0)


class TestBranchSemantics:
    @given(u32, u32)
    def test_eq_ne_complementary(self, a, b):
        assert TAKEN[Opcode.BEQ](a, b) != \
            TAKEN[Opcode.BNE](a, b)

    @given(u32, u32)
    def test_lt_ge_complementary_signed(self, a, b):
        assert TAKEN[Opcode.BLT](a, b) != \
            TAKEN[Opcode.BGE](a, b)

    @given(u32, u32)
    def test_unsigned_comparisons(self, a, b):
        assert TAKEN[Opcode.BLTU](a, b) == (a < b)
        assert TAKEN[Opcode.BGEU](a, b) == (a >= b)

    def test_signedness_differs(self):
        # 0xFFFFFFFF is -1 signed but UINT_MAX unsigned
        assert TAKEN[Opcode.BLT](0xFFFFFFFF, 0) is True
        assert TAKEN[Opcode.BLTU](0xFFFFFFFF, 0) is False
