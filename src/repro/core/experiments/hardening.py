"""Defender-side ablation: adversarial training against Algorithm 2.

The paper leaves the defender reactive.  This experiment asks the
natural follow-up: if the defender *anticipates* perturbation and
augments the training set with K randomly-drawn CR-Spectre variants,
how much evasion headroom is left for unseen variants?

Output: detection accuracy on held-out (never-trained-on) perturbation
variants as a function of the number of variants trained on.  The
interesting shape is diminishing returns — each disguise style must be
represented, and variants inside a known style stop evading, while a
style absent from training remains open.

Cell grid (the declared :class:`~repro.exec.SweepPlan`)::

    corpus ──┬── k/<K>   (one ablation point per K, fan-out)

``corpus`` samples every pool once (benign, plain attack, the K train
variants, holdout variants); each ``k/<K>`` cell trains its hardened
detector from the shared corpus, so the points are order-independent
and parallelise.  Re-running a killed sweep replays the corpus from
the cell cache and computes only the missing K points.
"""

import dataclasses
import random

from repro.attack.perturb import random_params
from repro.core.experiments.common import SweepResult, attempt_dataset
from repro.core.reporting import format_table
from repro.core.scenario import Scenario, ScenarioConfig
from repro.exec import SweepPlan, execute_plan
from repro.hid.features import DEFAULT_FEATURES
from repro.hid.io import samples_from_records, samples_to_records


@dataclasses.dataclass
class HardeningResult(SweepResult):
    """accuracy_by_k[k] = mean accuracy on held-out variants."""

    accuracy_by_k: dict
    holdout_variants: int
    classifier: str

    def format(self):
        rows = [
            [k, f"{100 * accuracy:.1f}%"]
            for k, accuracy in sorted(self.accuracy_by_k.items())
        ]
        text = format_table(
            ["variants trained on", "accuracy on unseen variants"],
            rows,
            title=(f"Hardening ablation — adversarially trained "
                   f"{self.classifier} vs {self.holdout_variants} "
                   f"held-out CR-Spectre variants"),
        )
        return self.sweep.report(text)

    def improvement(self):
        ks = sorted(self.accuracy_by_k)
        return self.accuracy_by_k[ks[-1]] - self.accuracy_by_k[ks[0]]

    def headlines(self):
        """Ledger headlines: accuracy recovered by adversarial training."""
        if not self.accuracy_by_k:
            return {}
        ks = sorted(self.accuracy_by_k)
        return {
            "unhardened_accuracy": self.accuracy_by_k[ks[0]],
            "hardened_accuracy": self.accuracy_by_k[ks[-1]],
            "hardening_improvement": self.improvement(),
        }

    def series(self):
        if not self.accuracy_by_k:
            return {}
        return {
            "accuracy_by_k": [
                self.accuracy_by_k[k] for k in sorted(self.accuracy_by_k)
            ],
        }


def _corpus_cell(root_seed, max_k, holdout_variants, samples_per_variant,
                 training_benign, training_attack, attempt_benign,
                 cell_seed=0, faults=None, scenario=None,
                 uarch="inorder"):
    """Every sampled pool, as JSON records (shared by all ``k/<K>`` cells).

    The train/holdout perturbation draws come from two disjoint RNG
    streams keyed off the *root* seed, exactly as the serial sweep drew
    them, so the ablation's variants do not depend on cell scheduling.
    """
    rng_train = random.Random(root_seed + 1)
    rng_holdout = random.Random(root_seed + 999)
    if scenario is None:
        scenario = Scenario(ScenarioConfig(seed=cell_seed, uarch=uarch),
                            faults=faults)
    benign = scenario.benign_samples(training_benign)
    plain = scenario.attack_samples_mixed_variants(training_attack)
    train_variants = [
        scenario.attack_samples(
            samples_per_variant, variant="v1",
            perturb=random_params(rng_train),
        )
        for _ in range(max_k)
    ]
    holdouts = [
        scenario.attack_samples(
            samples_per_variant, variant="v1",
            perturb=random_params(rng_holdout),
        )
        for _ in range(holdout_variants)
    ]
    eval_benign = scenario.benign_samples(
        attempt_benign * holdout_variants, include_extras=False
    )
    return {
        "benign": samples_to_records(benign),
        "plain_attack": samples_to_records(plain),
        "train_variants": [samples_to_records(s)
                           for s in train_variants],
        "holdouts": [samples_to_records(s) for s in holdouts],
        "eval_benign": samples_to_records(eval_benign),
    }


def _k_cell(corpus, k, root_seed, classifier, attempt_benign,
            cell_seed=0, faults=None):
    """One ablation point: hardened on K variants, scored on holdouts."""
    from repro.hid.dataset import samples_to_dataset
    from repro.hid.detector import make_detector

    benign = samples_from_records(corpus["benign"])
    attack_pool = list(samples_from_records(corpus["plain_attack"]))
    for records in corpus["train_variants"][:k]:
        attack_pool.extend(samples_from_records(records))
    dataset = samples_to_dataset(benign, attack_pool, DEFAULT_FEATURES)
    if faults is not None:
        faults.check_convergence(classifier, context=f"hardening:k={k}")
    detector = make_detector(classifier, seed=root_seed)
    detector.fit(dataset)

    holdout_benign = samples_from_records(corpus["eval_benign"])
    accuracies = []
    for index, records in enumerate(corpus["holdouts"]):
        holdout = samples_from_records(records)
        eval_benign = holdout_benign[
            index * attempt_benign:(index + 1) * attempt_benign
        ]
        accuracies.append(detector.accuracy_on(
            attempt_dataset(eval_benign, holdout)
        ))
    return sum(accuracies) / len(accuracies)


def plan_hardening(seed=0, classifier="mlp", train_variant_counts=(0, 2, 4, 8),
                   holdout_variants=4, samples_per_variant=40,
                   training_benign=200, training_attack=120,
                   attempt_benign=15, scenario=None, faults=None,
                   uarch="inorder"):
    """Declare the hardening-ablation cell grid (see module docstring)."""
    plan = SweepPlan("hardening", seed, faults=faults)
    local = scenario is not None
    shared = {"scenario": scenario} if local else {}
    plan.add(
        "corpus", _corpus_cell,
        kwargs=dict(
            root_seed=seed, max_k=max(train_variant_counts),
            holdout_variants=holdout_variants,
            samples_per_variant=samples_per_variant,
            training_benign=training_benign,
            training_attack=training_attack,
            attempt_benign=attempt_benign, uarch=uarch, **shared,
        ),
        seed_kw="cell_seed", faults_kw="faults", local=local,
    )
    for k in train_variant_counts:
        plan.add(
            f"k/{k}", _k_cell,
            kwargs=dict(k=k, root_seed=seed, classifier=classifier,
                        attempt_benign=attempt_benign),
            deps={"corpus": "corpus"},
            seed_kw="cell_seed", faults_kw="faults", local=local,
        )
    return plan


def hardening_meta(seed, classifier, train_variant_counts, holdout_variants,
                   samples_per_variant, training_benign, training_attack,
                   attempt_benign, uarch="inorder"):
    return {
        "seed": seed,
        "classifier": classifier,
        "train_variant_counts": list(train_variant_counts),
        "holdout_variants": holdout_variants,
        "samples_per_variant": samples_per_variant,
        "training_benign": training_benign,
        "training_attack": training_attack,
        "attempt_benign": attempt_benign,
        "uarch": uarch,
    }


def run_hardening(seed=0, classifier="mlp", train_variant_counts=(0, 2, 4, 8),
                  holdout_variants=4, samples_per_variant=40,
                  training_benign=200, training_attack=120,
                  attempt_benign=15, scenario=None,
                  faults=None, uarch="inorder", context=None):
    """Run the adversarial-training ablation.

    For each K in *train_variant_counts*: train on benign + plain
    Spectre + K random perturbation variants, then evaluate on
    *holdout_variants* fresh random variants (disjoint RNG stream).
    """
    plan = plan_hardening(seed, classifier, train_variant_counts,
                          holdout_variants, samples_per_variant,
                          training_benign, training_attack, attempt_benign,
                          scenario=scenario, faults=faults, uarch=uarch)
    sweep = execute_plan(plan, context)
    results = sweep.values
    accuracy_by_k = {}
    for k in train_variant_counts:
        value = results.get(f"k/{k}")
        if value is not None:
            accuracy_by_k[k] = value
    return HardeningResult(
        sweep=sweep,
        accuracy_by_k=accuracy_by_k,
        holdout_variants=holdout_variants,
        classifier=classifier,
    )
