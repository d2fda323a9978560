"""Memory model tests: segments, permissions (DEP), typed access."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AlignmentFault,
    ProtectionFault,
    SegmentationFault,
)
from repro.mem.memory import (
    Memory,
    PERM_R,
    PERM_W,
    PERM_X,
    format_perms,
)


@pytest.fixture()
def memory():
    m = Memory()
    m.map_segment("data", 0x1000, 0x1000, PERM_R | PERM_W)
    m.map_segment("text", 0x4000, 0x1000, PERM_R | PERM_X)
    return m


class TestMapping:
    def test_overlap_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.map_segment("bad", 0x1800, 0x1000, PERM_R)

    def test_adjacent_allowed(self, memory):
        memory.map_segment("next", 0x2000, 0x100, PERM_R)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Memory().map_segment("empty", 0, 0, PERM_R)

    def test_outside_32bit_rejected(self):
        with pytest.raises(ValueError):
            Memory().map_segment("big", 0xFFFFF000, 0x2000, PERM_R)

    def test_segment_by_name(self, memory):
        assert memory.segment_by_name("data").base == 0x1000
        with pytest.raises(KeyError):
            memory.segment_by_name("nope")

    def test_unmap_all(self, memory):
        memory.unmap_all()
        assert not memory.is_mapped(0x1000)


class TestTypedAccess:
    def test_byte_roundtrip(self, memory):
        memory.store_byte(0x1005, 0xAB)
        assert memory.load_byte(0x1005) == 0xAB

    def test_byte_masks_to_8_bits(self, memory):
        memory.store_byte(0x1000, 0x1FF)
        assert memory.load_byte(0x1000) == 0xFF

    def test_word_roundtrip_little_endian(self, memory):
        memory.store_word(0x1010, 0x11223344)
        assert memory.load_word(0x1010) == 0x11223344
        assert memory.load_byte(0x1010) == 0x44

    def test_word_wraps_to_32_bits(self, memory):
        memory.store_word(0x1010, -1)
        assert memory.load_word(0x1010) == 0xFFFFFFFF

    def test_misaligned_word_faults(self, memory):
        with pytest.raises(AlignmentFault):
            memory.load_word(0x1001)
        with pytest.raises(AlignmentFault):
            memory.store_word(0x1002, 1)

    def test_unmapped_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.load_byte(0x9000)
        with pytest.raises(SegmentationFault):
            memory.store_byte(0x0, 1)

    def test_access_crossing_segment_end(self, memory):
        # last aligned word slot that would cross the segment boundary
        memory.map_segment("tiny", 0x3000, 6, PERM_R | PERM_W)
        with pytest.raises(SegmentationFault):
            memory.load_word(0x3004)


class TestPermissions:
    def test_write_to_text_faults(self, memory):
        with pytest.raises(ProtectionFault):
            memory.store_byte(0x4000, 1)

    def test_fetch_from_data_faults_dep(self, memory):
        """The DEP property: rw- pages are not executable."""
        with pytest.raises(ProtectionFault):
            memory.fetch(0x1000, 8)

    def test_fetch_from_text_works(self, memory):
        memory.write_bytes(0x4000, b"\x00" * 8, force=True)
        assert memory.fetch(0x4000, 8) == b"\x00" * 8

    def test_force_write_bypasses_readonly(self, memory):
        memory.write_bytes(0x4000, b"\x4c", force=True)
        assert memory.read_bytes(0x4000, 1) == b"\x4c"

    def test_format_perms(self):
        assert format_perms(PERM_R | PERM_W) == "rw-"
        assert format_perms(PERM_R | PERM_X) == "r-x"
        assert format_perms(0) == "---"


class TestBulkHelpers:
    def test_write_read_roundtrip(self, memory):
        memory.write_bytes(0x1100, b"hello world")
        assert memory.read_bytes(0x1100, 11) == b"hello world"

    def test_cstring(self, memory):
        memory.write_bytes(0x1200, b"path\x00junk")
        assert memory.read_cstring(0x1200) == b"path"

    def test_unterminated_cstring_faults(self, memory):
        memory.write_bytes(0x1000, b"x" * 16)
        with pytest.raises(SegmentationFault):
            memory.read_cstring(0x1000, limit=8)

    @given(st.binary(min_size=1, max_size=64),
           st.integers(min_value=0, max_value=0xF00))
    def test_roundtrip_property(self, blob, offset):
        memory = Memory()
        memory.map_segment("d", 0x1000, 0x1000, PERM_R | PERM_W)
        memory.write_bytes(0x1000 + offset, blob)
        assert memory.read_bytes(0x1000 + offset, len(blob)) == blob

    @given(st.integers(min_value=0, max_value=0xFFC // 4 * 4))
    def test_word_byte_consistency(self, offset):
        memory = Memory()
        memory.map_segment("d", 0, 0x1000, PERM_R | PERM_W)
        offset &= ~3
        memory.store_word(offset, 0xDEADBEEF)
        value = sum(
            memory.load_byte(offset + i) << (8 * i) for i in range(4)
        )
        assert value == 0xDEADBEEF


class _CheckedMemory(Memory):
    """Reference: every typed access walks :meth:`Memory._checked`."""

    def load_byte(self, address):
        segment = self._checked(address, 1, PERM_R)
        return segment.buffer[address - segment.base]

    def store_byte(self, address, value):
        segment = self._checked(address, 1, PERM_W)
        segment.buffer[address - segment.base] = value & 0xFF
        if segment.perms & PERM_X:
            for listener in self._code_listeners:
                listener(address, 1)

    def load_word(self, address):
        if address & 3:
            raise AlignmentFault("misaligned word load", address)
        segment = self._checked(address, 4, PERM_R)
        return int.from_bytes(
            segment.buffer[address - segment.base:address - segment.base + 4],
            "little")

    def store_word(self, address, value):
        if address & 3:
            raise AlignmentFault("misaligned word store", address)
        segment = self._checked(address, 4, PERM_W)
        offset = address - segment.base
        segment.buffer[offset:offset + 4] = (
            (value & 0xFFFFFFFF).to_bytes(4, "little"))
        if segment.perms & PERM_X:
            for listener in self._code_listeners:
                listener(address, 4)


_PERMS = st.sampled_from([
    PERM_R | PERM_X, PERM_R | PERM_W, PERM_R, PERM_R | PERM_W | PERM_X,
])

#: ``(gap before, size, perms)`` per segment; gap 0 maps it adjacent to
#: the previous one, and sizes that are not a multiple of 4 leave a
#: word slot that crosses the segment end.
_LAYOUTS = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 4, 64]),
              st.integers(min_value=1, max_value=24), _PERMS),
    min_size=1, max_size=5,
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load_word", "store_word", "load_byte",
                         "store_byte", "chmod"]),
        st.integers(min_value=0, max_value=4),      # segment to aim at
        st.integers(min_value=-6, max_value=30),    # offset from its base
        st.integers(min_value=0, max_value=(1 << 33) - 1),
    ),
    max_size=40,
)


def _outcome(memory, op, address, value):
    try:
        if op.startswith("store"):
            return ("ok", getattr(memory, op)(address, value))
        return ("ok", getattr(memory, op)(address))
    except (AlignmentFault, ProtectionFault, SegmentationFault) as fault:
        return (type(fault), str(fault), fault.address)


class TestAccessFastPath:
    """The inline ``_last`` path agrees with a walk through _checked()."""

    @settings(max_examples=200, deadline=None)
    @given(_LAYOUTS, _OPS, _PERMS)
    def test_matches_checked_reference(self, layout, ops, new_perms):
        fast, reference = Memory(), _CheckedMemory()
        fired = {id(fast): [], id(reference): []}
        base = 0x1000
        for memory in (fast, reference):
            memory.add_code_listener(
                lambda address, size, log=fired[id(memory)]:
                    log.append((address, size)))
        for gap, size, perms in layout:
            base += gap
            for memory in (fast, reference):
                memory.map_segment(f"s{base:x}", base, size, perms)
            base += size
        for op, which, offset, value in ops:
            segments = fast.segments
            target = segments[which % len(segments)]
            if op == "chmod":
                # Permissions may change after mapping; both paths read
                # them live.
                for memory in (fast, reference):
                    memory.segment_by_name(target.name).perms = new_perms
                continue
            address = max(0, target.base + offset)
            assert (_outcome(fast, op, address, value)
                    == _outcome(reference, op, address, value))
            last = [m._last.name if m._last else None
                    for m in (fast, reference)]
            assert last[0] == last[1]
        assert fired[id(fast)] == fired[id(reference)]
        assert ([bytes(s.buffer) for s in fast.segments]
                == [bytes(s.buffer) for s in reference.segments])

    def test_executable_at_shares_the_lookup(self, memory):
        assert memory.executable_at(0x4010)
        assert memory._last.name == "text"
        assert not memory.executable_at(0x1010)
        assert memory._last.name == "data"
        assert not memory.executable_at(0x9000)   # unmapped: no update
        assert memory._last.name == "data"
