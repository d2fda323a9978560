"""Resilience layer: fault injection, watchdogs, retry, cell outcomes.

Everything an experiment or attack sweep needs to tolerate transient
failure: a seeded :class:`FaultInjector` to provoke the failure modes, a
:class:`Watchdog` instruction budget so nothing hangs, seeded
:func:`with_retry` backoff for flaky calibration/covert reads, and the
cell statuses a sweep degrades into instead of crashing.  Killed sweeps
resume through the cell cache (:mod:`repro.exec.cellcache`): a re-run
replays every completed cell.  See ``docs/ROBUSTNESS.md``.
"""

from repro.core.resilience.faults import (
    FAULT_KINDS,
    RUNAWAY_SOURCE,
    FaultEvent,
    FaultInjector,
)
from repro.core.resilience.outcomes import (
    CELL_CACHED,
    CELL_FAILED,
    CELL_OK,
    RECOVERABLE,
    error_chain,
    sweep_partial,
)
from repro.core.resilience.retry import (
    Retrier,
    RetryAttempt,
    RetryPolicy,
    VirtualClock,
    with_retry,
)
from repro.core.resilience.watchdog import Watchdog

__all__ = [
    "CELL_CACHED",
    "CELL_FAILED",
    "CELL_OK",
    "RECOVERABLE",
    "error_chain",
    "sweep_partial",
    "FAULT_KINDS",
    "RUNAWAY_SOURCE",
    "FaultEvent",
    "FaultInjector",
    "Retrier",
    "RetryAttempt",
    "RetryPolicy",
    "VirtualClock",
    "with_retry",
    "Watchdog",
]
