"""Profiler and detector tests."""

import pytest

from repro.errors import HidError
from repro.hid import (
    ATTACK,
    BENIGN,
    Dataset,
    HidDetector,
    OnlineHidDetector,
    Profiler,
    feature_set,
    make_detector,
    samples_to_dataset,
)
from repro.hid.features import (
    DEFAULT_FEATURES,
    ELIGIBLE_EVENTS,
    RANKED_FEATURES,
)
from repro.kernel import System
from repro.workloads import get_workload


def _spawn(name="bitcount", seed=3):
    system = System(seed=seed)
    system.install_binary(
        "/bin/w", get_workload(name).build(iterations=1 << 28)
    )
    return system.spawn("/bin/w")


class TestProfiler:
    def test_collects_requested_samples(self):
        profiler = Profiler(quantum=500)
        samples = profiler.profile(_spawn(), 10)
        assert len(samples) == 10
        assert all(s.label == BENIGN for s in samples)

    def test_window_sums_to_quantum(self):
        profiler = Profiler(quantum=500)
        samples = profiler.profile(_spawn(), 5)
        for sample in samples:
            assert sample.events["instructions"] == 500

    def test_warmup_skipped(self):
        profiler = Profiler(quantum=500, warmup_windows=3)
        process = _spawn()
        profiler.profile(process, 2)
        # 3 warmup + 2 kept = 5 quanta executed
        assert process.pmu.read()["instructions"] == 5 * 500

    def test_short_process_returns_fewer(self):
        system = System(seed=3)
        system.install_binary(
            "/bin/w", get_workload("bitcount").build(iterations=3)
        )
        process = system.spawn("/bin/w")
        samples = Profiler(quantum=2000).profile(process, 50)
        assert len(samples) < 50

    def test_noise_model_perturbs_values(self):
        noisy = Profiler(quantum=500, noise=0.1, seed=1)
        clean = Profiler(quantum=500)
        noisy_samples = noisy.profile(_spawn(seed=5), 10)
        clean_samples = clean.profile(_spawn(seed=5), 10)
        diffs = [
            abs(a.events["instructions"] - b.events["instructions"])
            for a, b in zip(noisy_samples, clean_samples)
        ]
        assert any(d > 0 for d in diffs)

    def test_noise_zero_is_exact(self):
        a = Profiler(quantum=500).profile(_spawn(seed=5), 5)
        b = Profiler(quantum=500).profile(_spawn(seed=5), 5)
        assert [s.events for s in a] == [s.events for s in b]

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            Profiler(quantum=0)


class TestFeatures:
    def test_sizes(self):
        assert len(feature_set(4)) == 4
        assert feature_set(1) == ("total_cache_misses",)
        assert DEFAULT_FEATURES == RANKED_FEATURES[:4]

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            feature_set(0)
        with pytest.raises(ValueError):
            feature_set(17)

    def test_flush_counters_not_eligible(self):
        """A deployed HID has no PAPI clflush event; using one would be
        an unfair oracle against flush+reload attacks."""
        assert "clflush_instructions" not in ELIGIBLE_EVENTS
        assert "spec_cache_fills" not in ELIGIBLE_EVENTS
        for name in RANKED_FEATURES:
            assert name in ELIGIBLE_EVENTS


class TestDetector:
    def _toy_training(self):
        profiler = Profiler(quantum=500)
        benign = profiler.profile(_spawn("bitcount"), 30)
        attack = profiler.profile(_spawn("browser"), 30, label=ATTACK)
        return samples_to_dataset(benign, attack, DEFAULT_FEATURES)

    def test_fit_and_classify(self):
        dataset = self._toy_training()
        train, test = dataset.split(0.7, seed=1)
        detector = HidDetector(classifier="lr", seed=1)
        detector.fit(train)
        assert detector.accuracy_on(test) > 0.8

    def test_feature_mismatch_rejected(self):
        dataset = self._toy_training()
        detector = HidDetector(classifier="lr", features=feature_set(2))
        with pytest.raises(HidError):
            detector.fit(dataset)

    def test_untrained_raises(self):
        with pytest.raises(HidError):
            HidDetector().predict(self._toy_training())

    def test_predict_samples(self):
        dataset = self._toy_training()
        detector = HidDetector(classifier="lr", seed=1).fit(dataset)
        samples = Profiler(quantum=500).profile(_spawn("bitcount"), 5)
        labels = detector.predict_samples(samples)
        assert len(labels) == 5

    def test_make_detector_factory(self):
        assert isinstance(make_detector("lr"), HidDetector)
        assert isinstance(make_detector("lr", online=True),
                          OnlineHidDetector)


class TestOnlineDetector:
    def test_observe_grows_corpus_and_refits(self):
        import numpy as np

        features = ("a", "b")
        X0 = np.vstack([np.zeros((20, 2)), np.ones((20, 2)) * 5])
        y0 = np.array([0] * 20 + [1] * 20)
        detector = OnlineHidDetector(classifier="lr", features=features,
                                     seed=1)
        detector.fit(Dataset(X0, y0, features))
        assert detector.corpus_size == 40

        X1 = np.ones((10, 2)) * 5
        detector.observe(Dataset(X1, np.ones(10, dtype=int), features))
        assert detector.corpus_size == 50
        assert detector.retrain_count == 1

    def test_observe_before_fit(self):
        import numpy as np

        detector = OnlineHidDetector(classifier="lr", features=("a",))
        with pytest.raises(HidError):
            detector.observe(Dataset(np.zeros((1, 1)), np.zeros(1), ("a",)))

    def test_retraining_moves_boundary(self):
        """The defining online property: new labeled traces change the
        verdict on the region they cover."""
        import numpy as np

        features = ("a", "b")
        rng = np.random.default_rng(0)
        benign = rng.normal(0, 0.3, size=(40, 2))
        attack = rng.normal(6, 0.3, size=(40, 2))
        X = np.vstack([benign, attack])
        y = np.array([0] * 40 + [1] * 40)
        detector = OnlineHidDetector(classifier="lr", features=features,
                                     seed=1)
        detector.fit(Dataset(X, y, features))

        # A new attack cluster at (3, -3): initially mostly benign.
        new_region = rng.normal((3, -3), 0.3, size=(40, 2))
        before = detector.classifier.predict(
            detector.scaler.transform(new_region)
        ).mean()
        detector.observe(Dataset(new_region, np.ones(40, dtype=int),
                                 features))
        after = detector.classifier.predict(
            detector.scaler.transform(new_region)
        ).mean()
        assert after > before


class TestConcurrentProfiling:
    def test_samples_from_all_processes(self):
        from repro.hid.dataset import ATTACK, BENIGN

        system = System(seed=3, quantum=500)
        for path, name in (("/bin/a", "bitcount"), ("/bin/b", "browser")):
            system.install_binary(
                path, get_workload(name).build(iterations=1 << 20)
            )
        a = system.spawn("/bin/a")
        b = system.spawn("/bin/b")
        profiler = Profiler(quantum=500)
        samples = profiler.profile_concurrent(
            system, [(a, BENIGN), (b, ATTACK)], num_samples=6
        )
        by_label = {}
        for sample in samples:
            by_label.setdefault(sample.label, []).append(sample)
        assert len(by_label[BENIGN]) == 6
        assert len(by_label[ATTACK]) == 6
        names = {s.process_name for s in samples}
        assert len(names) == 2

    def test_windows_are_per_process_deltas(self):
        from repro.hid.dataset import BENIGN

        system = system_ = System(seed=3, quantum=500)
        system.install_binary(
            "/bin/a", get_workload("bitcount").build(iterations=1 << 20)
        )
        a = system.spawn("/bin/a")
        b = system.spawn("/bin/a")
        samples = Profiler(quantum=500).profile_concurrent(
            system_, [(a, BENIGN), (b, BENIGN)], num_samples=4
        )
        for sample in samples:
            assert sample.events["instructions"] == 500
