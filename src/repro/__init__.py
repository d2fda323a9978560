"""CR-Spectre reproduction: defense-aware ROP-injected dynamic Spectre.

A full-stack simulation of Dhavlle et al., "CR-Spectre: Defense-Aware
ROP Injected Code-Reuse Based Dynamic Spectre" (DATE 2022):

* a toy RISC ISA + assembler (:mod:`repro.isa`),
* a speculative CPU with caches, branch predictors, TLBs and a 56-event
  PMU (:mod:`repro.cpu`, :mod:`repro.cache`, :mod:`repro.branch`,
  :mod:`repro.mem`),
* a small OS with DEP, ASLR, ``execve`` and a scheduler
  (:mod:`repro.kernel`),
* MiBench-style workloads incl. the vulnerable host
  (:mod:`repro.workloads`),
* the attack toolchain — Spectre v1/RSB/SBO generators, ROP gadget
  scanner + chain builder, Listing-1 payloads, Algorithm-2 perturbation,
  the adaptive evasion controller (:mod:`repro.attack`),
* ML-based hardware intrusion detection (:mod:`repro.hid`), and
* the per-figure/table experiment runners (:mod:`repro.core`).

Quickstart::

    from repro import Scenario, ScenarioConfig
    scenario = Scenario(ScenarioConfig(host="basicmath"))
    recovered, correct = scenario.verify_secret_recovery()

This ``__init__`` resolves its re-exports lazily (PEP 562), like
:mod:`repro.core` and :mod:`repro.hid`: importing one subpackage does
not import the others, and only code that builds a detector loads
numpy.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "AdaptiveAttacker": "repro.attack",
    "PerturbParams": "repro.attack",
    "SpectreConfig": "repro.attack",
    "build_spectre": "repro.attack",
    "plan_execve_injection": "repro.attack",
    "Scenario": "repro.core.scenario",
    "ScenarioConfig": "repro.core.scenario",
    "run_fig4": "repro.core.experiments",
    "run_fig5": "repro.core.experiments",
    "run_fig6": "repro.core.experiments",
    "run_table1": "repro.core.experiments",
    "ReproError": "repro.errors",
    "HidDetector": "repro.hid.detector",
    "OnlineHidDetector": "repro.hid.detector",
    "Profiler": "repro.hid.profiler",
    "make_detector": "repro.hid.detector",
    "System": "repro.kernel",
    "build_binary": "repro.kernel",
    "get_workload": "repro.workloads",
    "workload_names": "repro.workloads",
}

__version__ = "1.0.0"

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY_EXPORTS)
