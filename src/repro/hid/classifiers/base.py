"""Classifier interface shared by the four HID models.

All classifiers are binary (benign=0 / attack=1), implemented from
scratch on numpy because sklearn/TensorFlow are unavailable offline —
the paper's MLP (sklearn), NN (TensorFlow), LR and SVM map onto
:class:`~repro.hid.classifiers.mlp.MlpClassifier`,
:class:`~repro.hid.classifiers.deep_nn.DeepNnClassifier`,
:class:`~repro.hid.classifiers.logistic.LogisticRegressionClassifier` and
:class:`~repro.hid.classifiers.svm.LinearSvmClassifier`.
"""

import copy
import hashlib

import numpy as np

from repro.errors import HidError
from repro.hid.memo import active_memos


class BaseClassifier:
    """fit / predict / score over already-scaled feature matrices."""

    name = "abstract"

    def __init__(self, seed=0):
        self.seed = seed
        self._fitted = False

    # ---- interface -----------------------------------------------------
    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise HidError("X and y row counts differ")
        if X.shape[0] == 0:
            raise HidError("cannot fit on an empty dataset")
        memos = active_memos()
        if memos is None:
            self._fit(X, y)
        else:
            self._fit_memoized(memos.fits, X, y)
        self._fitted = True
        return self

    def _fit_memoized(self, memo, X, y):
        """Fit through the scope's fit memo (docs/PARALLELISM.md).

        The key is the class, every hyper-parameter :meth:`clone`
        carries (the seed among them) and a sha256 over the bytes,
        shape and dtype of *X* and *y*.  A hit restores an independent
        copy of the stored fitted arrays, so a caller that mutates its
        model never reaches the entry.
        """
        digest = hashlib.sha256()
        for array in (X, y):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).data)
        key = (type(self), tuple(sorted(self.hyperparams().items())),
               digest.hexdigest())
        state = memo.entries.get(key)
        if state is not None:
            memo.hits += 1
            vars(self).update(copy.deepcopy(state))
            return
        memo.misses += 1
        self._fit(X, y)
        memo.entries[key] = copy.deepcopy(
            {name: value for name, value in vars(self).items()
             if name.endswith("_") and not name.startswith("_")})
        memo.stored += 1

    def predict(self, X):
        self._require_fitted()
        return self._predict(np.asarray(X, dtype=np.float64))

    def decision_function(self, X):
        """Signed score; positive = attack."""
        self._require_fitted()
        return self._decision(np.asarray(X, dtype=np.float64))

    def score(self, X, y):
        """Accuracy on (X, y)."""
        predictions = self.predict(X)
        y = np.asarray(y)
        return float(np.mean(predictions == y))

    # ---- hooks -----------------------------------------------------------
    def _fit(self, X, y):
        raise NotImplementedError

    def _decision(self, X):
        raise NotImplementedError

    def _predict(self, X):
        return (self._decision(X) > 0.0).astype(np.int64)

    def _require_fitted(self):
        if not self._fitted:
            raise HidError(f"{self.name} classifier used before fit()")

    def hyperparams(self):
        """Constructor arguments by name: every public attribute that
        is not fitted state (fitted attributes end in ``_``)."""
        return {name: value for name, value in vars(self).items()
                if not name.startswith("_") and not name.endswith("_")}

    def clone(self):
        """Fresh, unfitted copy with identical hyper-parameters."""
        return type(self)(**self.hyperparams())
