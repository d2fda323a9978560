"""Figure 6: online (retraining) HID vs Spectre and CR-Spectre.

(a) Plain Spectre against detectors that retrain after every attempt:
    accuracy stays high and *levels out* (retraining smooths variance).
(b) CR-Spectre turns dynamic: after every detected attempt (accuracy
    above the 80 % detection line) the attacker mutates the Algorithm-2
    parameters; the online HID retrains on everything it saw.  The paper
    reports a degrading trend with partial recoveries, crossing the 55 %
    evasion threshold, with a minimum of 16 %.

Cell grid (the declared :class:`~repro.exec.SweepPlan`)::

    training ──┬── spectre      (phase a)
               └── crspectre    (phase b)

Unlike Fig. 5, the attempts *inside* a phase cannot be split into
cells: the online detectors carry state from attempt to attempt (that
coupling is the entire point of the figure), so each phase is one cell
and the two phases fan out after training.  A killed sweep resumes from
the last completed cell; an injected fault degrades its cell into a
partial report.
"""

import dataclasses

from repro.attack import PerturbParams
from repro.attack.adaptive import AdaptiveAttacker, AttemptRecord
from repro.core.experiments.common import (
    DETECTOR_NAMES,
    SweepResult,
    attempt_dataset,
    sample_training_records,
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


def observe_self_labeled(detector, dataset):
    """Online retraining with the labels the defender actually has.

    A runtime HID cannot know ground truth for new traces: windows it
    flagged are confirmed as attacks (analyst triage), windows it
    cleared enter the corpus as benign.  Evasive windows therefore
    *poison* the corpus — the self-training weakness the dynamic
    CR-Spectre exploits to keep the online HID degraded (paper Fig 6b).
    """
    from repro.hid.dataset import Dataset

    predictions = detector.predict(dataset)
    detector.observe(
        Dataset(dataset.X, predictions, dataset.feature_names)
    )


@dataclasses.dataclass
class Fig6Result(SweepResult):
    spectre: dict
    crspectre: dict
    attacker_history: list  # AttemptRecord per attempt
    attempts: int

    def format(self):
        lines = ["Fig. 6(a) — online HID vs plain Spectre "
                 "(accuracy per attempt)"]
        for name, series in self.spectre.items():
            values = [100.0 * v for v in series]
            lines.append(
                "  " + format_series(f"{name:>4}", values)
                + "  " + sparkline(values, 0, 100)
            )
        lines.append("Fig. 6(b) — online HID vs dynamic CR-Spectre")
        for name, series in self.crspectre.items():
            values = [100.0 * v for v in series]
            lines.append(
                "  " + format_series(f"{name:>4}", values)
                + "  " + sparkline(values, 0, 100)
            )
        lines.append("  attacker variants per attempt:")
        for record in self.attacker_history:
            lines.append(
                f"    #{record.attempt}: acc={100 * record.accuracy:.1f}% "
                f"{'EVADED' if record.evaded else 'detected'} "
                f"[{record.params.describe()}]"
            )
        text = "\n".join(lines)
        return self.sweep.report(text)

    def min_accuracy(self):
        return min(v for s in self.crspectre.values() for v in s)

    def headlines(self):
        """Ledger headlines: the dynamic-evasion claim (paper min 16 %)."""
        out = {}
        if self.spectre:
            values = [v for s in self.spectre.values() for v in s]
            out["spectre_mean_accuracy"] = sum(values) / len(values)
        if self.crspectre:
            values = [v for s in self.crspectre.values() for v in s]
            out["crspectre_mean_accuracy"] = sum(values) / len(values)
            out["crspectre_min_accuracy"] = self.min_accuracy()
        return out

    def series(self):
        """Per-detector accuracy-vs-attempt series, plus the attacker's
        own (averaged) feedback series."""
        out = {}
        for phase in ("spectre", "crspectre"):
            for name, values in getattr(self, phase).items():
                out[f"{phase}/{name}"] = list(values)
        if self.attacker_history:
            out["attacker/feedback"] = [
                record.accuracy for record in self.attacker_history
            ]
        return out


def _online_detectors(records, root_seed, detector_names, faults=None):
    """Deterministic re-fit of the retraining detectors from the corpus."""
    benign = samples_from_records(records["benign"])
    attack = samples_from_records(records["attack"])
    train, _ = split_training(benign, attack, seed=root_seed)
    return train_detectors(train, detector_names, seed=root_seed,
                           online=True, faults=faults)


def _spectre_cell(records, root_seed, host, attempts, detector_names,
                  attempt_samples, attempt_benign, audit_every,
                  cell_seed=0, faults=None, scenario=None,
                  uarch="inorder"):
    """Phase (a): plain Spectre vs retraining detectors (one cell)."""
    detectors = _online_detectors(records, root_seed, detector_names,
                                  faults=faults)
    if scenario is None:
        scenario = Scenario(
            ScenarioConfig(host=host, seed=cell_seed, uarch=uarch),
            faults=faults,
        )
    series = {name: [] for name in detector_names}
    for attempt in range(attempts):
        fresh_attack = scenario.attack_samples_mixed_variants(
            attempt_samples
        )
        fresh_benign = scenario.benign_samples(
            attempt_benign, include_extras=False
        )
        dataset = attempt_dataset(fresh_benign, fresh_attack)
        audited = audit_every and (attempt + 1) % audit_every == 0
        for name, detector in detectors.items():
            series[name].append(detector.accuracy_on(dataset))
            if audited:
                detector.observe(dataset)
            else:
                observe_self_labeled(detector, dataset)
    return series


def _crspectre_cell(records, root_seed, host, attempts, detector_names,
                    attempt_samples, attempt_benign, audit_every,
                    cell_seed=0, faults=None, scenario=None,
                    uarch="inorder"):
    """Phase (b): dynamic CR-Spectre vs retraining detectors (one cell)."""
    detectors = _online_detectors(records, root_seed, detector_names,
                                  faults=faults)
    if scenario is None:
        scenario = Scenario(
            ScenarioConfig(host=host, seed=cell_seed, uarch=uarch),
            faults=faults,
        )
    attacker = AdaptiveAttacker(seed=root_seed + 13)
    series = {name: [] for name in detector_names}
    for attempt in range(attempts):
        params = attacker.propose()
        fresh_attack = scenario.attack_samples_mixed_variants(
            attempt_samples, perturb=params
        )
        fresh_benign = scenario.benign_samples(
            attempt_benign, include_extras=False
        )
        dataset = attempt_dataset(fresh_benign, fresh_attack)
        audited = audit_every and (attempt + 1) % audit_every == 0
        accuracies = []
        for name, detector in detectors.items():
            accuracy = detector.accuracy_on(dataset)
            series[name].append(accuracy)
            accuracies.append(accuracy)
            if audited:
                detector.observe(dataset)
            else:
                observe_self_labeled(detector, dataset)
        # The attacker only sees the (averaged) detector verdicts.
        attacker.feedback(sum(accuracies) / len(accuracies))
    return {
        "series": series,
        "history": [
            {
                "attempt": record.attempt,
                "accuracy": record.accuracy,
                "params": dataclasses.asdict(record.params),
            }
            for record in attacker.history
        ],
    }


def plan_fig6(seed=0, host="basicmath", attempts=10,
              detector_names=DETECTOR_NAMES, training_benign=240,
              training_attack=240, attempt_samples=60, attempt_benign=15,
              audit_every=3, scenario=None, training=None, faults=None,
              uarch="inorder"):
    """Declare the Figure-6 cell grid (see the module docstring)."""
    plan = SweepPlan("fig6", seed, faults=faults)
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
    phase_kwargs = dict(
        root_seed=seed, host=host, attempts=attempts,
        detector_names=tuple(detector_names),
        attempt_samples=attempt_samples, attempt_benign=attempt_benign,
        audit_every=audit_every,
    )
    plan.add("spectre", _spectre_cell,
             kwargs=dict(phase_kwargs, **shared),
             deps={"records": "training"},
             seed_kw="cell_seed", faults_kw="faults", local=local)
    plan.add("crspectre", _crspectre_cell,
             kwargs=dict(phase_kwargs, **shared),
             deps={"records": "training"},
             seed_kw="cell_seed", faults_kw="faults", local=local)
    return plan


def fig6_meta(seed, host, attempts, detector_names, training_benign,
              training_attack, attempt_samples, attempt_benign,
              audit_every, uarch="inorder"):
    return {
        "seed": seed, "host": host, "attempts": attempts,
        "detector_names": list(detector_names),
        "training_benign": training_benign,
        "training_attack": training_attack,
        "attempt_samples": attempt_samples,
        "attempt_benign": attempt_benign,
        "audit_every": audit_every,
        "uarch": uarch,
    }


def run_fig6(seed=0, host="basicmath", attempts=10,
             detector_names=DETECTOR_NAMES, training_benign=240,
             training_attack=240, attempt_samples=60, attempt_benign=15,
             audit_every=3, scenario=None, training=None,
             faults=None, uarch="inorder", context=None):
    """Regenerate Figure 6.  Returns a :class:`Fig6Result`.

    ``audit_every``: every k-th attempt the defender's analysts audit
    the window labels (the paper's human-in-the-loop), so that attempt
    is learned with ground truth — the source of the partial recoveries
    in Fig. 6(b); all other attempts retrain self-labeled.
    """
    plan = plan_fig6(seed, host, attempts, detector_names,
                     training_benign, training_attack, attempt_samples,
                     attempt_benign, audit_every, scenario=scenario,
                     training=training, faults=faults, uarch=uarch)
    sweep = execute_plan(plan, context)
    results = sweep.values

    phase_b_value = results.get("crspectre")
    if phase_b_value is None:
        crspectre_series, attacker_history = {}, []
    else:
        crspectre_series = phase_b_value["series"]
        attacker_history = [
            AttemptRecord(
                attempt=record["attempt"],
                params=PerturbParams(**record["params"]),
                accuracy=record["accuracy"],
            )
            for record in phase_b_value["history"]
        ]

    return Fig6Result(
        sweep=sweep,
        spectre=results.get("spectre") or {},
        crspectre=crspectre_series,
        attacker_history=attacker_history,
        attempts=attempts,
    )
