"""Timing state of the out-of-order core.

The core keeps one float per in-flight entry.  In-order commit at
``commit_width`` per cycle fixes each entry's commit time the moment it
dispatches: ``c_k = max(c_{k-1} + 1/commit_width, done_k)``, the commit
port's own recurrence, in the same float operations.  So the reorder
buffer is the monotone list of those times since the last drain, and
the entries that have left by a time ``t`` are exactly the prefix with
``c_k <= t``: occupancy, the committed clock and the wait a full ROB or
load/store queue imposes are each a bisect or an index away, and
nothing retires one entry at a time.  The load/store queue is the
list's indices of the memory entries.

Each reservation-station pool is a min-heap of the ``capacity`` largest
completion times allocated to it (see :func:`station`).  Dispatch times
never decrease, so every entry that has left a pool completed by the
current dispatch, and the pool is full exactly when its ``capacity``
largest completions are all later: ``pool[0] > dispatch``.  The op then
dispatches at ``pool[0]``, the earliest of them, and allocation is one
``heappushpop``.

:meth:`~repro.uarch.ooo.OooCore.run` inlines allocation and the
one-comparison full checks; the pieces here are what it calls on the
rare paths (stalls, drains, the clock reads of recovery and tracing),
kept separately testable.
"""

from bisect import bisect_right

#: Commit time of the sentinels: committed before anything else.
_NEVER = float("-inf")


class ReorderBuffer:
    """Commit times of the entries allocated since the last drain.

    ``times`` holds ``depth`` sentinels, then one commit time per entry
    in program order; ``mem`` holds ``lsq_depth`` sentinels (index 0),
    then the ``times`` index of each memory entry.  The sentinels make
    both full checks one comparison: the ROB is full at *t* when
    ``times[-depth] > t``, the LSQ when ``times[mem[-lsq_depth]] > t``.
    A queue at least as deep as the ROB never fills (at most ``depth -
    1`` entries are in flight when dispatch checks it), so ``lsq_depth``
    is capped at ``depth``.  ``retired`` is the retire threshold the
    loop last synced (every entry whose commit time is up to it has
    left); ``base`` is the commit clock at the last drain.  Wrong-path
    uops never allocate: they are charged against :meth:`free_slots` at
    the mispredicted branch.
    """

    __slots__ = ("depth", "lsq_depth", "times", "mem", "base", "retired")

    def __init__(self, depth, lsq_depth):
        self.depth = depth
        self.lsq_depth = min(lsq_depth, depth)
        self.times = [_NEVER] * depth
        self.mem = [0] * self.lsq_depth
        self.base = 0.0
        self.retired = 0.0

    def __len__(self):
        """Occupancy at ``retired``."""
        return len(self.times) - bisect_right(self.times, self.retired)

    def free_slots(self):
        """Unallocated entries — the transient-execution window."""
        return self.depth - len(self)

    def committed(self):
        """The commit clock at ``retired``: the last departure's time."""
        times = self.times
        left = bisect_right(times, self.retired)
        return times[left - 1] if left > self.depth else self.base

    def wait(self, now, index):
        """Dispatch at *now* waits for entry *index* to commit.

        Returns its commit time and how many entries commit while the
        dispatch waits (the stall count of a full ROB or LSQ).
        """
        times = self.times
        return times[index], index + 1 - bisect_right(times, now)

    def drain(self):
        """Commit everything in flight; returns the commit clock."""
        times = self.times
        if len(times) > self.depth:
            self.base = times[-1]
            del times[self.depth:]
        del self.mem[self.lsq_depth:]
        self.retired = self.base
        return self.base


def station(capacity):
    """An empty reservation-station pool of *capacity* entries.

    The pool is a heap of *capacity* completion times; its sentinels
    complete before anything, so an empty pool is never full.
    Allocation is ``heappushpop(pool, done)``, which keeps the largest
    *capacity* times; ``pool[:] = station(len(pool))`` empties it in
    place.
    """
    return [_NEVER] * capacity
