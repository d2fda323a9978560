"""Figure 5: offline (static) HID vs Spectre and CR-Spectre, 10 attempts.

(a) Plain Spectre against four static detectors: flat, high accuracy.
(b) CR-Spectre: the attacker pre-tunes *one* perturbation variant
    offline (the paper: "to save the overhead, CR-Spectre only generates
    one variation of perturbation" because a static HID never relearns)
    and replays it; detection collapses below the 55 % evasion line.

Cell grid (the declared :class:`~repro.exec.SweepPlan`)::

    training ──┬── spectre/attempt/<i>      (phase a, one cell each)
               ├── search                   (offline pre-tuning, phase b)
               └──── crspectre/attempt/<i>  (phase b, depends on search)

Every attempt is its own cell: it stages a fresh campaign from its
derived seed and re-fits the (deterministic) detectors from the shared
training corpus, so cells are order-independent and a ``--jobs N`` run
is bit-identical to a serial one.  A re-run replays completed cells
from the cell cache and computes only the rest; an injected
fault degrades the affected cell into a partial report.
"""

import dataclasses

from repro.attack import PerturbParams
from repro.core.experiments.common import (
    DETECTOR_NAMES,
    SweepResult,
    attempt_dataset,
    sample_training_records,
    search_evading_params,
    split_training,
    train_detectors,
)
from repro.core.reporting import (
    format_series,
    sparkline,
)
from repro.core.scenario import Scenario, ScenarioConfig
from repro.exec import SweepPlan, execute_plan
from repro.hid.io import samples_from_records, samples_to_records


@dataclasses.dataclass
class Fig5Result(SweepResult):
    spectre: dict       # detector name -> [accuracy per attempt]
    crspectre: dict     # detector name -> [accuracy per attempt]
    chosen_params: object
    search_history: list
    attempts: int

    def format(self):
        lines = ["Fig. 5(a) — offline HID vs plain Spectre "
                 "(accuracy per attempt)"]
        for name, series in self.spectre.items():
            values = [100.0 * v for v in series]
            lines.append(
                "  " + format_series(f"{name:>4}", values)
                + "  " + sparkline(values, 0, 100)
            )
        chosen = (self.chosen_params.describe()
                  if self.chosen_params is not None else "n/a")
        lines.append("Fig. 5(b) — offline HID vs CR-Spectre "
                     f"(fixed variant: {chosen})")
        for name, series in self.crspectre.items():
            values = [100.0 * v for v in series]
            lines.append(
                "  " + format_series(f"{name:>4}", values)
                + "  " + sparkline(values, 0, 100)
            )
        text = "\n".join(lines)
        return self.sweep.report(text)

    def mean_accuracy(self, which="crspectre"):
        series = getattr(self, which)
        values = [v for s in series.values() for v in s]
        return sum(values) / len(values)

    def headlines(self):
        """Ledger headlines: the offline-evasion claim (paper ≤ 55 %)."""
        out = {}
        if self.spectre:
            out["spectre_mean_accuracy"] = self.mean_accuracy("spectre")
        if self.crspectre:
            out["crspectre_mean_accuracy"] = \
                self.mean_accuracy("crspectre")
            out["crspectre_min_accuracy"] = min(
                v for s in self.crspectre.values() for v in s
            )
        return out

    def series(self):
        """Per-detector accuracy-vs-attempt series for both phases."""
        out = {}
        for phase in ("spectre", "crspectre"):
            for name, values in getattr(self, phase).items():
                out[f"{phase}/{name}"] = list(values)
        return out


def _fit_detectors(records, root_seed, detector_names, faults=None):
    """The static detectors, re-fit deterministically from the corpus.

    Fitting is a pure function of (corpus, root seed), so every attempt
    cell reconstructs the *same* detectors the deployed HID would run —
    the price of order-independent cells is refitting, not divergence.
    """
    benign = samples_from_records(records["benign"])
    attack = samples_from_records(records["attack"])
    train, _ = split_training(benign, attack, seed=root_seed)
    detectors = train_detectors(train, detector_names, seed=root_seed,
                                faults=faults)
    return benign, detectors


def _attempt_cell(records, root_seed, host, detector_names,
                  attempt_samples, attempt_benign, perturb_fields=None,
                  search=None, cell_seed=0, faults=None, scenario=None,
                  uarch="inorder"):
    """One attack attempt: fresh campaign, fixed detectors.

    Returns ``{detector name: accuracy}``.  ``search`` (the search
    cell's value) supplies the pre-tuned perturbation for phase (b);
    ``perturb_fields`` pins one explicitly instead.
    """
    _, detectors = _fit_detectors(records, root_seed, detector_names,
                                  faults=faults)
    if scenario is None:
        scenario = Scenario(
            ScenarioConfig(host=host, seed=cell_seed, uarch=uarch),
            faults=faults,
        )
    perturb = None
    if search is not None:
        perturb_fields = search["params"]
    if perturb_fields is not None:
        perturb = PerturbParams(**perturb_fields)
    fresh_attack = scenario.attack_samples_mixed_variants(
        attempt_samples, perturb=perturb
    )
    fresh_benign = scenario.benign_samples(
        attempt_benign, include_extras=False
    )
    dataset = attempt_dataset(fresh_benign, fresh_attack)
    return {
        name: detector.accuracy_on(dataset)
        for name, detector in detectors.items()
    }


def _search_cell(records, root_seed, host, detector_names,
                 cell_seed=0, faults=None, scenario=None,
                 uarch="inorder"):
    """Offline pre-tuning of the single perturbation variant (Fig. 5b).

    The attacker probes the deployed (static) HID with candidate
    perturbations until the detectors' mean accuracy drops to the
    evasion threshold.
    """
    import random

    benign, detectors = _fit_detectors(records, root_seed, detector_names,
                                       faults=faults)
    if scenario is None:
        scenario = Scenario(
            ScenarioConfig(host=host, seed=cell_seed, uarch=uarch),
            faults=faults,
        )
    params, history = search_evading_params(
        scenario, detectors, benign, rng=random.Random(root_seed + 77),
    )
    return {
        "params": dataclasses.asdict(params),
        "history": [
            [dataclasses.asdict(p), accuracy] for p, accuracy in history
        ],
    }


def plan_fig5(seed=0, host="basicmath", attempts=10,
              detector_names=DETECTOR_NAMES, training_benign=240,
              training_attack=240, attempt_samples=60, attempt_benign=20,
              scenario=None, training=None, faults=None,
              uarch="inorder"):
    """Declare the Figure-5 cell grid (see the module docstring).

    ``scenario``/``training`` allow reuse of an already-staged campaign
    (the fig5+fig6 benches share the expensive sampling phase); cells
    then close over live state, which pins the plan to the serial
    backend.
    """
    plan = SweepPlan("fig5", seed, faults=faults)
    local = scenario is not None
    shared = {"scenario": scenario} if local else {}
    shared["uarch"] = uarch
    if training is not None:
        benign, attack = training
        plan.preset("training", {
            "benign": samples_to_records(benign),
            "attack": samples_to_records(attack),
        })
    else:
        plan.add(
            "training", sample_training_records,
            kwargs=dict(host=host, training_benign=training_benign,
                        training_attack=training_attack, **shared),
            seed_kw="cell_seed", faults_kw="faults", local=local,
        )
    attempt_kwargs = dict(
        root_seed=seed, host=host, detector_names=tuple(detector_names),
        attempt_samples=attempt_samples, attempt_benign=attempt_benign,
    )
    for attempt in range(attempts):
        plan.add(
            f"spectre/attempt/{attempt}", _attempt_cell,
            kwargs=dict(attempt_kwargs, **shared),
            deps={"records": "training"},
            seed_kw="cell_seed", faults_kw="faults", local=local,
        )
    plan.add(
        "search", _search_cell,
        kwargs=dict(root_seed=seed, host=host,
                    detector_names=tuple(detector_names), **shared),
        deps={"records": "training"},
        seed_kw="cell_seed", faults_kw="faults", local=local,
    )
    for attempt in range(attempts):
        plan.add(
            f"crspectre/attempt/{attempt}", _attempt_cell,
            kwargs=dict(attempt_kwargs, **shared),
            deps={"records": "training", "search": "search"},
            seed_kw="cell_seed", faults_kw="faults", local=local,
        )
    return plan


def fig5_meta(seed, host, attempts, detector_names, training_benign,
              training_attack, attempt_samples, attempt_benign,
              uarch="inorder"):
    return {
        "seed": seed, "host": host, "attempts": attempts,
        "detector_names": list(detector_names),
        "training_benign": training_benign,
        "training_attack": training_attack,
        "attempt_samples": attempt_samples,
        "attempt_benign": attempt_benign,
        "uarch": uarch,
    }


def _collect_series(results, phase, attempts, detector_names):
    """Per-detector accuracy series from the completed attempt cells."""
    series = {name: [] for name in detector_names}
    seen = False
    for attempt in range(attempts):
        value = results.get(f"{phase}/attempt/{attempt}")
        if value is None:
            continue
        seen = True
        for name in detector_names:
            series[name].append(value[name])
    return series if seen else {}


def run_fig5(seed=0, host="basicmath", attempts=10,
             detector_names=DETECTOR_NAMES, training_benign=240,
             training_attack=240, attempt_samples=60, attempt_benign=20,
             scenario=None, training=None, faults=None,
             uarch="inorder", context=None):
    """Regenerate Figure 5.  Returns a :class:`Fig5Result`."""
    plan = plan_fig5(seed, host, attempts, detector_names,
                     training_benign, training_attack, attempt_samples,
                     attempt_benign, scenario=scenario, training=training,
                     faults=faults, uarch=uarch)
    sweep = execute_plan(plan, context)
    results = sweep.values

    search = results.get("search")
    if search is None:
        chosen_params, search_history = None, []
    else:
        chosen_params = PerturbParams(**search["params"])
        search_history = [
            (PerturbParams(**fields), accuracy)
            for fields, accuracy in search["history"]
        ]
    return Fig5Result(
        sweep=sweep,
        spectre=_collect_series(results, "spectre", attempts,
                                detector_names),
        crspectre=_collect_series(results, "crspectre", attempts,
                                  detector_names),
        chosen_params=chosen_params,
        search_history=search_history,
        attempts=attempts,
    )
