"""Logistic regression (the paper's LR detector), batch gradient descent."""

import numpy as np

from repro.hid.classifiers.base import BaseClassifier


def _sigmoid(z):
    # Clipped for numerical stability on extreme margins.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class LogisticRegressionClassifier(BaseClassifier):
    """L2-regularised logistic regression."""

    name = "lr"

    def __init__(self, learning_rate=0.5, epochs=300, l2=1e-3, seed=0):
        super().__init__(seed=seed)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights_ = None
        self.bias_ = 0.0

    def _fit(self, X, y):
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        w = rng.normal(scale=0.01, size=d)
        b = 0.0
        target = y.astype(np.float64)
        for _ in range(self.epochs):
            p = _sigmoid(X @ w + b)
            error = p - target
            grad_w = X.T @ error / n + self.l2 * w
            grad_b = float(np.mean(error))
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.weights_ = w
        self.bias_ = b

    def _decision(self, X):
        return X @ self.weights_ + self.bias_

    def predict_proba(self, X):
        """P(attack) per row."""
        return _sigmoid(self.decision_function(X))
