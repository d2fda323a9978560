"""Linear SVM (the paper's SVM detector, "linear kernel"): hinge-loss SGD."""

import numpy as np

from repro.hid.classifiers.base import BaseClassifier


class LinearSvmClassifier(BaseClassifier):
    """Primal linear SVM trained with mini-batch subgradient descent."""

    name = "svm"

    def __init__(self, c=1.0, epochs=200, batch_size=32, learning_rate=0.05,
                 seed=0):
        super().__init__(seed=seed)
        self.c = c
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weights_ = None
        self.bias_ = 0.0

    def _fit(self, X, y):
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        w = np.zeros(d)
        b = 0.0
        signs = np.where(y == 1, 1.0, -1.0)
        step = self.learning_rate
        decay = np.empty(d)
        for epoch in range(self.epochs):
            # Gather the epoch's permutation once; batches are slices.
            order = rng.permutation(n)
            x_epoch, s_epoch = X[order], signs[order]
            for start in range(0, n, self.batch_size):
                xb = x_epoch[start:start + self.batch_size]
                sb = s_epoch[start:start + self.batch_size]
                margins = sb * (xb @ w + b)
                active = margins < 1.0
                # subgradient of 0.5||w||^2 + C * mean(hinge):
                # ``w - C * mean(active hinge terms)``
                grad_b = 0.0
                if active.any():
                    s_active = sb[active]
                    grad_w = self.c * (
                        (s_active[:, None] * xb[active]).mean(axis=0)
                        * np.sum(active) / len(sb)
                    )
                    np.subtract(w, grad_w, out=grad_w)
                    grad_w *= step
                    grad_b -= self.c * float(s_active.sum() / len(sb))
                else:
                    grad_w = np.multiply(step, w, out=decay)
                w -= grad_w
                b -= step * grad_b
            # 1/t learning-rate decay keeps late epochs stable.
            step = self.learning_rate / (1.0 + 0.01 * epoch)
        self.weights_ = w
        self.bias_ = b

    def _decision(self, X):
        return X @ self.weights_ + self.bias_
