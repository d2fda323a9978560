"""Experiment runners: one per table/figure of the paper's evaluation."""

from repro.core.experiments.common import (
    DETECTOR_LEGENDS,
    DETECTOR_NAMES,
    attempt_dataset,
    co_run,
    mean_accuracy,
    search_evading_params,
    split_training,
    train_detectors,
)
from repro.core.experiments.fig4 import Fig4Result, plan_fig4, run_fig4
from repro.core.experiments.hardening import (
    HardeningResult,
    plan_hardening,
    run_hardening,
)
from repro.core.experiments.fig5 import Fig5Result, plan_fig5, run_fig5
from repro.core.experiments.fig6 import Fig6Result, plan_fig6, run_fig6
from repro.core.experiments.table1 import (
    ONLINE_PERTURB,
    OFFLINE_PERTURB,
    TABLE1_ROWS,
    Table1Result,
    Table1Row,
    plan_table1,
    run_table1,
)

#: Experiment command name -> runner.
RUNNERS = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "table1": run_table1,
    "hardening": run_hardening,
}

__all__ = [
    "DETECTOR_LEGENDS",
    "DETECTOR_NAMES",
    "RUNNERS",
    "attempt_dataset",
    "co_run",
    "mean_accuracy",
    "search_evading_params",
    "split_training",
    "train_detectors",
    "Fig4Result",
    "plan_fig4",
    "run_fig4",
    "HardeningResult",
    "plan_hardening",
    "run_hardening",
    "Fig5Result",
    "plan_fig5",
    "run_fig5",
    "Fig6Result",
    "plan_fig6",
    "run_fig6",
    "plan_table1",
    "ONLINE_PERTURB",
    "OFFLINE_PERTURB",
    "TABLE1_ROWS",
    "Table1Result",
    "Table1Row",
    "run_table1",
]
