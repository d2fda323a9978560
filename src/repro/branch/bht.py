"""Branch history table of 2-bit saturating counters.

This is the structure Spectre v1 mistrains: repeated in-bounds calls
drive the counter for the bounds-check branch to *strongly taken*, so the
one out-of-bounds call is predicted down the array-access path and the
secret-dependent load executes speculatively.
"""

STRONG_NOT_TAKEN = 0
WEAK_NOT_TAKEN = 1
WEAK_TAKEN = 2
STRONG_TAKEN = 3


class BranchHistoryTable:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries=1024, initial=WEAK_NOT_TAKEN):
        if entries & (entries - 1) or entries <= 0:
            raise ValueError("BHT entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._initial = initial
        self._counters = [initial] * entries

    def _index(self, pc):
        # Instructions are 8 bytes, so drop the low 3 bits before hashing.
        return (pc >> 3) & self._mask

    def predict(self, pc):
        """Return True if the branch at *pc* is predicted taken."""
        return self._counters[self._index(pc)] >= WEAK_TAKEN

    def update(self, pc, taken):
        """Train the counter with the resolved outcome."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            if counter < STRONG_TAKEN:
                self._counters[index] = counter + 1
        else:
            if counter > STRONG_NOT_TAKEN:
                self._counters[index] = counter - 1

    def counter(self, pc):
        """Expose the raw 2-bit state (for tests and diagnostics)."""
        return self._counters[self._index(pc)]

    def reset(self):
        # In place: compiled superblocks bind the counter list itself.
        self._counters[:] = [self._initial] * self.entries
