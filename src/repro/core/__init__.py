"""Core: campaign orchestration, experiment runners, reporting, resilience.

This ``__init__`` resolves its re-exports lazily (PEP 562).  The
resilience subpackage (:mod:`repro.core.resilience`) is imported by
low-level modules such as :mod:`repro.attack.calibrate`; eager imports
of :mod:`repro.core.scenario` here would close an import cycle
(scenario → attack → calibrate → core), so attribute access triggers
the heavy imports only when actually needed.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "format_percent": "repro.core.reporting",
    "format_series": "repro.core.reporting",
    "format_table": "repro.core.reporting",
    "format_cell_status": "repro.core.reporting",
    "sparkline": "repro.core.reporting",
    "DEFAULT_SECRET": "repro.core.scenario",
    "PROFILE_ITERATIONS": "repro.core.scenario",
    "PROFILE_REPEATS": "repro.core.scenario",
    "Scenario": "repro.core.scenario",
    "ScenarioConfig": "repro.core.scenario",
    "FaultInjector": "repro.core.resilience",
    "FAULT_KINDS": "repro.core.resilience",
    "RetryPolicy": "repro.core.resilience",
    "Retrier": "repro.core.resilience",
    "VirtualClock": "repro.core.resilience",
    "with_retry": "repro.core.resilience",
    "Watchdog": "repro.core.resilience",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY_EXPORTS)
