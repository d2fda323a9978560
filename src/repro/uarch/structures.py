"""Timing state of the out-of-order core.

The core keeps no per-instruction objects.  The reorder buffer holds one
``(done, is_mem, seq, pc)`` tuple per in-flight instruction; each
reservation-station pool is a min-heap of its occupants' completion
times; the load/store queue is just the count of the ROB's ``is_mem``
entries (both commit in program order, so the count is exact).  The
commit port and the heap pushes are inlined in
:meth:`~repro.uarch.ooo.OooCore.run`; the two pieces here are what the
loop calls, kept separately testable.
"""

from collections import deque
from heapq import heappop


class ReorderBuffer(deque):
    """Program-ordered in-flight instructions, oldest on the left.

    Entries enter at dispatch and leave at commit, strictly in order.
    Wrong-path uops never allocate: they are charged against
    :meth:`free_slots` at the mispredicted branch.
    """

    def __init__(self, depth):
        super().__init__()
        self.depth = depth

    def free_slots(self):
        """Unallocated entries — the transient-execution window."""
        return max(0, self.depth - len(self))


def acquire(pool, capacity, now):
    """Dispatch time of an op arriving at a full reservation station.

    *pool* is a min-heap of the occupants' completion times; an entry
    frees once its result is ready.  Every entry done by *now* leaves;
    while the pool is still full, dispatch slips to the earliest
    completion, which leaves along with its ties.  Structural hazards
    push fetch this way, exactly like a full ROB does.
    """
    while pool and pool[0] <= now:
        heappop(pool)
    while len(pool) >= capacity:
        now = heappop(pool)
        while pool and pool[0] <= now:
            heappop(pool)
    return now
