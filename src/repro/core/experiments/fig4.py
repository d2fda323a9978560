"""Figure 4: HID accuracy vs feature size, per MiBench host.

The paper plots detection accuracy of an MLP-style HID distinguishing
each of four MiBench hosts from (variant-averaged) standalone Spectre,
for feature sizes 16, 8, 4, 2 and 1.  Expected shape: >80 % for sizes
>= 2, a collapse at size 1, and >90 % at the chosen size 4.

Each host is one sweep *cell* of the declared :class:`SweepPlan`
(``repro.exec``): cells are mutually independent, seeded from their
cell key, and may run serially or fanned out over a process pool with
identical results; with a cell cache, each completed host is stored as
it lands and a re-run of a killed sweep replays those hosts and
computes only the rest; with ``faults`` set, injected failures degrade
single cells into a partial report instead of crashing the sweep.
"""

import dataclasses

from repro.core.experiments.common import SweepResult
from repro.core.reporting import format_table
from repro.core.scenario import Scenario, ScenarioConfig
from repro.exec import SweepPlan, execute_plan
from repro.hid.features import FEATURE_SIZES, feature_set
from repro.workloads import FIG4_HOSTS


@dataclasses.dataclass
class Fig4Result(SweepResult):
    """accuracies[host][feature_size] = variant-averaged accuracy."""

    accuracies: dict
    hosts: tuple
    feature_sizes: tuple
    classifier: str

    def format(self):
        headers = ["Feature size"] + [
            f"Spectre_{i + 1} ({host})"
            for i, host in enumerate(self.hosts)
        ]
        rows = []
        for size in self.feature_sizes:
            row = [size]
            for host in self.hosts:
                cell = self.accuracies.get(host)
                row.append(
                    f"{100.0 * cell[size]:.1f}%" if cell else "n/a"
                )
            rows.append(row)
        text = format_table(
            headers, rows,
            title=(f"Fig. 4 — HID ({self.classifier}) accuracy vs feature "
                   f"size (Spectre variants averaged)"),
        )
        return self.sweep.report(text)

    def accuracy_at(self, size):
        """Host-averaged accuracy at one feature size (completed hosts)."""
        values = [
            self.accuracies[host][size]
            for host in self.hosts if host in self.accuracies
        ]
        return sum(values) / len(values)

    def headlines(self):
        """The run-ledger headline numbers (see docs/LEDGER.md).

        The paper's chosen operating point is feature size 4 (">90 %");
        size 1 records the collapse the figure exists to show.
        """
        if not self.accuracies:
            return {}
        out = {}
        for size in (4, 1):
            if size in self.feature_sizes:
                out[f"hid_accuracy_size{size}"] = self.accuracy_at(size)
        return out

    def series(self):
        """Accuracy-vs-feature-size series, one per completed host."""
        return {
            f"accuracy_by_size/{host}": [
                self.accuracies[host][size]
                for size in self.feature_sizes
            ]
            for host in self.hosts if host in self.accuracies
        }


def _host_cell(host, feature_sizes, classifier, benign_per_host,
               attack_per_variant, variants, cell_seed=0, faults=None,
               uarch="inorder"):
    """One host's accuracy-by-size dict (JSON-serialisable)."""
    from repro.hid.dataset import samples_to_dataset
    from repro.hid.detector import make_detector

    scenario = Scenario(ScenarioConfig(
        host=host, seed=cell_seed, spectre_variants=tuple(variants),
        uarch=uarch,
    ), faults=faults)
    # The paper's profiling scope "also includes the host and other
    # benign applications like browsers, text editors" — without the
    # cache-noisy extras a single miss counter would suffice.
    benign = scenario.benign_samples(benign_per_host)
    per_variant_samples = {
        variant: scenario.attack_samples(
            attack_per_variant, variant=variant
        )
        for variant in variants
    }
    by_size = {}
    for size in feature_sizes:
        features = feature_set(size)
        variant_accuracies = []
        for variant, attack in per_variant_samples.items():
            dataset = samples_to_dataset(benign, attack, features)
            train, test = dataset.split(0.7, seed=cell_seed)
            if faults is not None:
                faults.check_convergence(
                    classifier, context=f"fig4:{host}:{size}"
                )
            detector = make_detector(
                classifier, features=features, seed=cell_seed
            )
            detector.fit(train)
            variant_accuracies.append(detector.accuracy_on(test))
        by_size[str(size)] = (
            sum(variant_accuracies) / len(variant_accuracies)
        )
    return by_size


def plan_fig4(seed=0, hosts=FIG4_HOSTS, feature_sizes=FEATURE_SIZES,
              classifier="mlp", benign_per_host=150, attack_per_variant=50,
              variants=("v1", "rsb", "sbo"), faults=None,
              uarch="inorder"):
    """Declare the Figure-4 cell grid: one independent cell per host."""
    plan = SweepPlan("fig4", seed, faults=faults)
    for host in hosts:
        plan.add(
            f"host/{host}", _host_cell,
            kwargs=dict(
                host=host, feature_sizes=list(feature_sizes),
                classifier=classifier, benign_per_host=benign_per_host,
                attack_per_variant=attack_per_variant,
                variants=list(variants), uarch=uarch,
            ),
            seed_kw="cell_seed", faults_kw="faults",
        )
    return plan


def fig4_meta(seed, hosts, feature_sizes, classifier, benign_per_host,
              attack_per_variant, variants, uarch="inorder"):
    return {
        "seed": seed,
        "hosts": list(hosts),
        "feature_sizes": list(feature_sizes),
        "classifier": classifier,
        "benign_per_host": benign_per_host,
        "attack_per_variant": attack_per_variant,
        "variants": list(variants),
        "uarch": uarch,
    }


def run_fig4(seed=0, hosts=FIG4_HOSTS, feature_sizes=FEATURE_SIZES,
             classifier="mlp", benign_per_host=150, attack_per_variant=50,
             variants=("v1", "rsb", "sbo"), faults=None,
             uarch="inorder", context=None):
    """Regenerate Figure 4.  Returns a :class:`Fig4Result`."""
    plan = plan_fig4(seed, hosts, feature_sizes, classifier,
                     benign_per_host, attack_per_variant, variants,
                     faults=faults, uarch=uarch)
    sweep = execute_plan(plan, context)
    results = sweep.values
    accuracies = {}
    for host in hosts:
        value = results.get(f"host/{host}")
        if value is not None:
            accuracies[host] = {int(k): v for k, v in value.items()}
    return Fig4Result(
        sweep=sweep,
        accuracies=accuracies,
        hosts=tuple(hosts),
        feature_sizes=tuple(feature_sizes),
        classifier=classifier,
    )
