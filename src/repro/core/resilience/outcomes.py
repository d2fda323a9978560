"""Sweep-cell outcomes: statuses, recoverable errors, partial sweeps.

A sweep is a set of named *cells*; each ends ``ok``, ``cached``
(replayed from the cell cache, see :mod:`repro.exec.cellcache`) or
``failed`` (a typed, recoverable error the sweep absorbed into a
partial report).  Anything outside :data:`RECOVERABLE` propagates.
"""

from repro.errors import (
    BudgetExceededError,
    RetryExhaustedError,
    TransientError,
)

#: Cell statuses a sweep report can carry.
CELL_OK = "ok"
CELL_CACHED = "cached"      # replayed from a previous run's cell cache
CELL_FAILED = "failed"      # typed, recoverable failure; sweep went on

#: Error classes a sweep cell may absorb into a partial report; anything
#: else (programming errors, fatal configuration errors) propagates.
RECOVERABLE = (TransientError, RetryExhaustedError, BudgetExceededError)


def error_chain(exc):
    """Render an exception's ``__cause__`` chain as one status string."""
    chain = []
    cursor = exc
    while cursor is not None:
        chain.append(f"{type(cursor).__name__}: {cursor}")
        cursor = cursor.__cause__
    return " <- ".join(chain)


def sweep_partial(statuses):
    """True when any cell of the sweep failed."""
    return any(
        cell.get("status") == CELL_FAILED for cell in statuses.values()
    )
