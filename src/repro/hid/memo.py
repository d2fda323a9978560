"""Sweep memos: content-keyed replays, scoped to one sweep.

A :class:`SweepMemos` scope holds two in-memory memos (see
docs/PARALLELISM.md, "Sweep memos"):

* ``profiles`` — the raw window deltas of a freshly spawned benign
  process's profile (:meth:`repro.hid.profiler.Profiler.profile`);
* ``fits`` — the fitted arrays of a classifier
  (:meth:`repro.hid.classifiers.BaseClassifier.fit`).

Nothing is memoized outside :func:`memo_scope`, so library calls and
tests never share entries.
"""

import contextlib


class Memo:
    """Entries by content key; ``hits``, ``misses`` and ``stored``
    count lookups that replayed, computed, and were kept for replay."""

    def __init__(self):
        self.entries = {}
        self.hits = 0
        self.misses = 0
        self.stored = 0

    def counts(self):
        return {"hits": self.hits, "misses": self.misses,
                "stored": self.stored}


class SweepMemos:
    """One scope's memos: benign ``profiles`` and classifier ``fits``."""

    def __init__(self):
        self.profiles, self.fits = Memo(), Memo()


#: Ambient scope stack; ``None`` (the bottom) means no memo.
_SCOPES = [None]


def active_memos():
    """The innermost scoped :class:`SweepMemos`, or ``None``."""
    return _SCOPES[-1]


@contextlib.contextmanager
def memo_scope(memos=None):
    """Run the block with *memos* (default: fresh, empty ones) active."""
    if memos is None:
        memos = SweepMemos()
    _SCOPES.append(memos)
    try:
        yield memos
    finally:
        _SCOPES.pop()
