"""Profiler samples and their labels.

A *sample* is one profiler window: the per-quantum deltas of all 56
events for one process, labelled benign (0) or attack (1).  This module
imports no numpy, so simulation-only paths (the profiler, the
scenarios, sample records in the cell cache) never load it; only
:meth:`Sample.vector` does, when it is called.
"""

import dataclasses

BENIGN = 0
ATTACK = 1


@dataclasses.dataclass(frozen=True)
class Sample:
    """One profiling window."""

    process_name: str
    label: int
    events: dict  # all 56 event deltas

    def vector(self, feature_names):
        import numpy as np

        return np.array(
            [float(self.events[name]) for name in feature_names]
        )
