"""Shared machinery for the per-figure experiment runners."""

import dataclasses

from repro.attack import PerturbParams
from repro.hid.features import DEFAULT_FEATURES
from repro.obs.tracer import current_tracer


@dataclasses.dataclass
class SweepResult:
    """Base of every runner's result: the sweep record it was built from.

    *sweep* is the :class:`~repro.exec.SweepRecord` of the runner's
    plan; a report ends with its status and metrics sections.
    """

    sweep: object

    @property
    def partial(self):
        return self.sweep.partial


def sample_training_records(host, training_benign, training_attack,
                            cell_seed=0, faults=None, scenario=None,
                            uarch="inorder"):
    """The ``training`` cell body shared by the fig5/fig6 plans.

    Samples a labelled corpus and returns it as JSON-serialisable
    records.  With no *scenario* injected, the campaign is staged from
    the cell's derived seed, so the corpus does not depend on what other
    cells ran before (or concurrently with) this one.
    """
    from repro.core.scenario import Scenario, ScenarioConfig
    from repro.hid.io import samples_to_records

    if scenario is None:
        scenario = Scenario(
            ScenarioConfig(host=host, seed=cell_seed, uarch=uarch),
            faults=faults,
        )
    return {
        "benign": samples_to_records(
            scenario.benign_samples(training_benign)
        ),
        "attack": samples_to_records(
            scenario.attack_samples_mixed_variants(training_attack)
        ),
    }

#: The paper's four detector models (Section III-A).
DETECTOR_NAMES = ("mlp", "nn", "lr", "svm")

#: Figure legend names used in the paper for the four detectors.
DETECTOR_LEGENDS = {
    "mlp": "Spectre [2] (MLP)",
    "nn": "Spectre [4] (NN)",
    "lr": "Spectre [3]-LR",
    "svm": "Spectre [3]-SVM",
}


def train_detectors(train_dataset, names=DETECTOR_NAMES, seed=0,
                    online=False, features=DEFAULT_FEATURES, faults=None):
    """Fit one detector per model name on the training dataset.

    *faults* (a :class:`~repro.core.resilience.FaultInjector`) may inject
    ``classifier_divergence``: the affected fit raises a transient
    :class:`~repro.errors.ClassifierConvergenceError`, which sweep cells
    absorb into a partial report.
    """
    from repro.hid.detector import make_detector

    tracer = current_tracer()
    detectors = {}
    for name in names:
        if faults is not None:
            faults.check_convergence(name, context="train_detectors")
        detector = make_detector(
            name, features=features, seed=seed, online=online
        )
        with tracer.span("hid.train", "hid", model=name, online=online,
                         rows=len(train_dataset.y)):
            detector.fit(train_dataset)
        detectors[name] = detector
    return detectors


def attempt_dataset(benign_samples, attack_samples,
                    features=DEFAULT_FEATURES):
    """The evaluation set for one attack attempt (paper Figs. 5/6)."""
    from repro.hid.dataset import samples_to_dataset

    return samples_to_dataset(benign_samples, attack_samples, features)


def mean_accuracy(detectors, dataset):
    accuracies = [d.accuracy_on(dataset) for d in detectors.values()]
    return sum(accuracies) / len(accuracies)


#: Deterministic pre-tuning ladder the attacker walks before going
#: random: progressively stronger dispersion (Section II-E's "delay loop
#: to disperse" applied with increasing force).
SEARCH_LADDER = (
    PerturbParams(),
    PerturbParams(loop_count=20, extra_loops=3),
    PerturbParams(delay=150, calls_per_byte=2),
    PerturbParams(delay=1000, calls_per_byte=2),
    PerturbParams(delay=2500, calls_per_byte=3),
    PerturbParams(delay=6000, calls_per_byte=4),
)


def search_evading_params(scenario, detectors, benign_pool,
                          attempt_samples=45, target=0.55, variant="v1",
                          extra_random=4, rng=None):
    """Offline pre-tuning of the single perturbation variant (Fig. 5b).

    The attacker probes the deployed (static) HID with candidate
    perturbations until the detectors' mean accuracy drops to the
    evasion threshold.  Returns ``(params, history)`` where history is
    ``[(params, accuracy), ...]``.
    """
    from repro.attack.perturb import random_params

    candidates = list(SEARCH_LADDER)
    if rng is not None:
        candidates.extend(random_params(rng) for _ in range(extra_random))

    history = []
    best = None
    for params in candidates:
        samples = scenario.attack_samples(
            attempt_samples, variant=variant, perturb=params
        )
        dataset = attempt_dataset(benign_pool[:len(samples) // 3], samples)
        accuracy = mean_accuracy(detectors, dataset)
        history.append((params, accuracy))
        if best is None or accuracy < best[1]:
            best = (params, accuracy)
        if accuracy <= target:
            return params, history
    return best[0], history


def co_run(processes, quantum=10_000, context_switch_flush=True,
           until=None, max_quanta=1_000_000, watchdog=None):
    """Round-robin *processes* with context-switch costs.

    Stops when ``until()`` becomes true (default: the first process
    terminates).  Used by the Table-I overhead measurements.  A
    *watchdog* turns an over-budget co-schedule into a typed
    :class:`~repro.errors.BudgetExceededError` instead of silently
    stopping at ``max_quanta``.
    """
    if until is None:
        primary = processes[0]
        until = lambda: not primary.alive  # noqa: E731

    last = None
    quanta = 0
    while not until() and quanta < max_quanta:
        progressed = False
        for process in processes:
            if not process.alive:
                continue
            if last is not None and last is not process:
                if context_switch_flush:
                    caches = process.cpu.caches
                    caches.l1d.flush_all()
                    caches.l1i.flush_all()
                    process.cpu.dtlb.flush()
                    process.cpu.itlb.flush()
                if process.cpu._tr_kernel is not None:
                    process.cpu._tr_kernel.event(
                        "kernel.context_switch", pid=process.pid
                    )
            last = process
            executed = process.step_quantum(quantum)
            if executed:
                progressed = True
            if watchdog is not None:
                watchdog.charge(executed)
            quanta += 1
            if until():
                break
        if not progressed:
            break
    return quanta


def split_training(benign_samples, attack_samples,
                   features=DEFAULT_FEATURES, train_fraction=0.7, seed=0):
    """Build the 70/30 split the paper uses; returns (train, test)."""
    from repro.hid.dataset import samples_to_dataset

    dataset = samples_to_dataset(benign_samples, attack_samples, features)
    return dataset.split(train_fraction, seed=seed)


def benign_eval_pool(dataset):
    """Benign-only rows of a dataset, as a Dataset (for attempt mixes)."""
    from repro.hid.dataset import Dataset

    mask = dataset.y == 0
    return Dataset(dataset.X[mask], dataset.y[mask], dataset.feature_names)
