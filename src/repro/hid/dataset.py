"""Dataset container for HID training.

A *dataset* is the numpy view over a chosen feature subset of profiler
samples (:mod:`repro.hid.samples`), with the paper's 70/30 train/test
split.
"""

import numpy as np

from repro.cpu.pmu import EVENT_NAMES
from repro.errors import HidError
from repro.hid.samples import ATTACK, BENIGN, Sample


class Dataset:
    """Feature matrix + labels over a fixed feature subset."""

    def __init__(self, X, y, feature_names):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise HidError(
                f"inconsistent dataset shapes: X{X.shape} y{y.shape}"
            )
        if X.shape[1] != len(feature_names):
            raise HidError("feature count does not match feature names")
        self.X = X
        self.y = y
        self.feature_names = tuple(feature_names)

    @classmethod
    def from_samples(cls, samples, feature_names):
        if not samples:
            raise HidError("cannot build a dataset from zero samples")
        X = np.array([
            [float(sample.events[name]) for name in feature_names]
            for sample in samples
        ])
        y = np.array([sample.label for sample in samples])
        return cls(X, y, feature_names)

    def __len__(self):
        return self.X.shape[0]

    @property
    def num_features(self):
        return self.X.shape[1]

    def class_counts(self):
        return {
            BENIGN: int(np.sum(self.y == BENIGN)),
            ATTACK: int(np.sum(self.y == ATTACK)),
        }

    def split(self, train_fraction=0.7, seed=0):
        """Stratified train/test split (paper: 70/30)."""
        rng = np.random.default_rng(seed)
        train_idx = []
        test_idx = []
        for label in np.unique(self.y):
            indices = np.flatnonzero(self.y == label)
            rng.shuffle(indices)
            cut = int(round(train_fraction * len(indices)))
            train_idx.extend(indices[:cut])
            test_idx.extend(indices[cut:])
        train_idx = np.array(sorted(train_idx))
        test_idx = np.array(sorted(test_idx))
        train = Dataset(self.X[train_idx], self.y[train_idx],
                        self.feature_names)
        test = Dataset(self.X[test_idx], self.y[test_idx],
                       self.feature_names)
        return train, test

    def merged_with(self, other):
        """Concatenate two datasets (online-HID retraining)."""
        if other.feature_names != self.feature_names:
            raise HidError("cannot merge datasets with different features")
        return Dataset(
            np.vstack([self.X, other.X]),
            np.concatenate([self.y, other.y]),
            self.feature_names,
        )

    def subsample(self, max_rows, seed=0):
        """Random subset bound (keeps online retraining affordable)."""
        if len(self) <= max_rows:
            return self
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=max_rows, replace=False)
        idx.sort()
        return Dataset(self.X[idx], self.y[idx], self.feature_names)


def samples_to_dataset(benign_samples, attack_samples, feature_names):
    """Convenience: relabel + combine the two sample streams."""
    rows = [
        Sample(s.process_name, BENIGN, s.events) for s in benign_samples
    ] + [
        Sample(s.process_name, ATTACK, s.events) for s in attack_samples
    ]
    return Dataset.from_samples(rows, feature_names)


def full_event_names():
    return EVENT_NAMES
