"""Deterministic parallel sweep execution.

The subsystem every experiment runner dispatches through: a sweep is
declared as a :class:`SweepPlan` of :class:`Cell`\\ s (each with a
derived seed and explicit dependencies), executed by a backend —
:class:`SerialBackend` in-process or :class:`ProcessPoolBackend` over
spawn-safe warm workers, picked from ``--jobs`` by :func:`backend_for`
— and merged back into the resilience layer's
:class:`~repro.core.resilience.CheckpointStore`.  Parallel output is
bit-identical to serial output under the same root seed; see
``docs/PARALLELISM.md`` for the seed-derivation scheme and the
determinism guarantee.
"""

from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    invoke_cell,
)
from repro.exec.cellcache import CellCache
from repro.exec.plan import Cell, SweepPlan
from repro.exec.pool import shutdown_all, shutdown_pools, warmup
from repro.exec.progress import SweepProgress
from repro.exec.runner import (
    TRACED_VALUE,
    CellExecutionError,
    describe_plan,
    execute_plan,
    open_store,
)
from repro.exec.seeds import derive_seed, stable_hash

__all__ = [
    "Cell",
    "CellCache",
    "CellExecutionError",
    "ProcessPoolBackend",
    "SerialBackend",
    "SweepPlan",
    "SweepProgress",
    "TRACED_VALUE",
    "derive_seed",
    "describe_plan",
    "execute_plan",
    "invoke_cell",
    "open_store",
    "shutdown_all",
    "shutdown_pools",
    "stable_hash",
    "warmup",
]


def backend_for(jobs):
    """The backend for a ``--jobs N`` request (1 = serial reference)."""
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs)
