"""Byte-addressable memory with segment-level R/W/X permissions.

The permission model is the piece that makes the ROP storyline honest:
Data Execution Prevention (DEP / W^X) is enforced by refusing instruction
fetches from segments without ``X``, so an attacker cannot simply write
shellcode into the overflowed stack buffer and jump to it — reusing the
host's own executable code (the ROP chain) is the only way in, exactly as
the paper argues.
"""

import struct
import types
import weakref

from repro.errors import (
    AlignmentFault,
    ProtectionFault,
    SegmentationFault,
)

PERM_R = 1
PERM_W = 2
PERM_X = 4

_WORD = struct.Struct("<I")


def format_perms(perms):
    """Render a permission bitmask as e.g. ``"r-x"``."""
    return (
        ("r" if perms & PERM_R else "-")
        + ("w" if perms & PERM_W else "-")
        + ("x" if perms & PERM_X else "-")
    )


class Segment:
    """A contiguous mapped region.

    ``base``, ``size``, ``end`` and ``buffer`` are fixed once mapped
    (``perms`` may change; the access paths read it live).
    """

    __slots__ = ("name", "base", "size", "end", "perms", "buffer")

    def __init__(self, name, base, size, perms):
        if size <= 0:
            raise ValueError(f"segment {name!r} must have positive size")
        self.name = name
        self.base = base
        self.size = size
        #: one past the last mapped address
        self.end = base + size
        self.perms = perms
        self.buffer = bytearray(size)

    def overlaps(self, other):
        return self.base < other.end and other.base < self.end

    def __repr__(self):
        return (
            f"Segment({self.name!r}, base={self.base:#010x}, "
            f"size={self.size:#x}, perms={format_perms(self.perms)})"
        )


def _weak_listener(method):
    """A code listener that calls *method* while its object lives."""
    ref = weakref.WeakMethod(method)

    def listener(address, size):
        bound = ref()
        if bound is not None:
            bound(address, size)

    return listener


class Memory:
    """A process address space: a small set of non-overlapping segments.

    Real programs overwhelmingly hit the same segment in bursts, so
    ``_last`` remembers the segment of the latest lookup.  The typed
    accessors (``load_word``/``store_word``/``load_byte``/
    ``store_byte``) check it inline: when it covers the whole access
    and carries the permission bit, the access is one call.  Anything
    else falls back to :meth:`_checked`, which walks the segments,
    refreshes ``_last`` and raises the typed fault.  Both paths agree
    on every value, fault and ``_last`` update; the fast path is only
    the case where the walk would have returned ``_last`` unchanged.
    """

    def __init__(self):
        self.segments = []
        self._last = None
        #: callbacks fired after a store lands in an executable
        #: segment (self-modifying code): the cores drop decode caches
        #: and compiled superblocks.  Under W^X (every standard image)
        #: no store can reach an X segment, so the notification path
        #: costs one permission-bit test per store.
        self._code_listeners = []

    def add_code_listener(self, callback):
        """Register ``callback(address, size)`` for executable writes.

        A bound method is held through a weak reference: the cores
        register their own ``_on_code_write``, and a core owns the
        memory it listens to, so a strong reference would make the two
        a cycle that only the cyclic collector could free.
        """
        if isinstance(callback, types.MethodType):
            callback = _weak_listener(callback)
        self._code_listeners.append(callback)

    # ---- mapping ------------------------------------------------------
    def map_segment(self, name, base, size, perms):
        """Map a new zero-filled segment; returns it."""
        if base < 0 or base + size > 0x1_0000_0000:
            raise ValueError(
                f"segment {name!r} outside 32-bit address space"
            )
        segment = Segment(name, base, size, perms)
        for existing in self.segments:
            if existing.overlaps(segment):
                raise ValueError(
                    f"segment {name!r} overlaps {existing.name!r}"
                )
        self.segments.append(segment)
        self.segments.sort(key=lambda s: s.base)
        self._last = None
        return segment

    def unmap_all(self):
        """Drop every mapping (used by ``execve`` to replace the image)."""
        self.segments = []
        self._last = None

    def segment_by_name(self, name):
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(f"no segment named {name!r}")

    def _lookup(self, address):
        """The segment containing *address* (refreshing ``_last``), or None."""
        last = self._last
        if last is not None and last.base <= address < last.end:
            return last
        for segment in self.segments:
            if segment.base <= address < segment.end:
                self._last = segment
                return segment
        return None

    def find_segment(self, address):
        """Return the segment containing *address* or raise a fault."""
        segment = self._lookup(address)
        if segment is None:
            raise SegmentationFault("unmapped access", address)
        return segment

    def is_mapped(self, address):
        try:
            self.find_segment(address)
        except SegmentationFault:
            return False
        return True

    def executable_at(self, address):
        """True when *address* lies in an executable segment.

        Non-raising (unmapped -> False) and side-effect free apart from
        the shared one-entry segment cache; used by ``clflush`` to
        decide whether a flushed line carries code.
        """
        segment = self._lookup(address)
        return segment is not None and bool(segment.perms & PERM_X)

    # ---- typed access -------------------------------------------------
    def _checked(self, address, size, perm):
        segment = self.find_segment(address)
        if address + size > segment.end:
            raise SegmentationFault("access crosses segment end", address)
        if not segment.perms & perm:
            kind = {PERM_R: "read", PERM_W: "write", PERM_X: "execute"}[perm]
            raise ProtectionFault(
                f"{kind} of {format_perms(segment.perms)} "
                f"segment {segment.name!r}",
                address,
            )
        return segment

    # The four accessors below try ``_last`` inline before falling back
    # to _checked() (see the class docstring).
    def load_byte(self, address):
        segment = self._last
        if (segment is None or not segment.base <= address < segment.end
                or not segment.perms & PERM_R):
            segment = self._checked(address, 1, PERM_R)
        return segment.buffer[address - segment.base]

    def store_byte(self, address, value):
        segment = self._last
        if (segment is None or not segment.base <= address < segment.end
                or not segment.perms & PERM_W):
            segment = self._checked(address, 1, PERM_W)
        segment.buffer[address - segment.base] = value & 0xFF
        if segment.perms & PERM_X:
            for listener in self._code_listeners:
                listener(address, 1)

    def load_word(self, address):
        if address & 3:
            raise AlignmentFault("misaligned word load", address)
        segment = self._last
        if (segment is None or not segment.base <= address <= segment.end - 4
                or not segment.perms & PERM_R):
            segment = self._checked(address, 4, PERM_R)
        return _WORD.unpack_from(segment.buffer, address - segment.base)[0]

    def store_word(self, address, value):
        if address & 3:
            raise AlignmentFault("misaligned word store", address)
        segment = self._last
        if (segment is None or not segment.base <= address <= segment.end - 4
                or not segment.perms & PERM_W):
            segment = self._checked(address, 4, PERM_W)
        _WORD.pack_into(segment.buffer, address - segment.base,
                        value & 0xFFFFFFFF)
        if segment.perms & PERM_X:
            for listener in self._code_listeners:
                listener(address, 4)

    def fetch(self, address, size):
        """Instruction fetch: *size* bytes with execute permission."""
        segment = self._checked(address, size, PERM_X)
        offset = address - segment.base
        return bytes(segment.buffer[offset:offset + size])

    # ---- bulk helpers (used by the loader and syscalls) ----------------
    def write_bytes(self, address, blob, force=False):
        """Copy *blob* into memory; ``force`` bypasses W permission.

        The loader uses ``force=True`` to populate read-only text segments.
        """
        remaining = memoryview(bytes(blob))
        while remaining:
            segment = self.find_segment(address)
            if not force and not segment.perms & PERM_W:
                raise ProtectionFault(
                    f"write of read-only segment {segment.name!r}", address
                )
            offset = address - segment.base
            chunk = min(len(remaining), segment.size - offset)
            segment.buffer[offset:offset + chunk] = remaining[:chunk]
            if segment.perms & PERM_X:
                for listener in self._code_listeners:
                    listener(address, chunk)
            remaining = remaining[chunk:]
            address += chunk

    def read_bytes(self, address, size):
        out = bytearray()
        while size:
            segment = self.find_segment(address)
            offset = address - segment.base
            chunk = min(size, segment.size - offset)
            out += segment.buffer[offset:offset + chunk]
            size -= chunk
            address += chunk
        return bytes(out)

    def read_cstring(self, address, limit=4096):
        """Read a NUL-terminated string (syscall path argument)."""
        out = bytearray()
        for _ in range(limit):
            byte = self.load_byte(address)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            address += 1
        raise SegmentationFault("unterminated string", address)
