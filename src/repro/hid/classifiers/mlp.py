"""Multi-layer perceptron (the paper's sklearn MLP detector).

ReLU hidden layers, sigmoid output, mini-batch SGD with momentum — a
from-scratch equivalent of ``sklearn.neural_network.MLPClassifier``.
The paper's "3-layer network" is input + one hidden + output, i.e.
``hidden_layers=(32,)`` here.
"""

import numpy as np

from repro.hid.classifiers.base import BaseClassifier


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _layer_views(flat, sizes):
    """Per-layer ``(weights, biases)`` views of one flat buffer.

    Every weight matrix comes first, then every bias vector, so
    ``flat[:n_weights]`` is the whole L2-regularised slice.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset:offset + fan_in * fan_out]
                       .reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


class MlpClassifier(BaseClassifier):
    """ReLU MLP with a logistic output unit."""

    name = "mlp"

    def __init__(self, hidden_layers=(32,), learning_rate=0.05,
                 momentum=0.9, epochs=200, batch_size=32, l2=1e-4, seed=0):
        super().__init__(seed=seed)
        self.hidden_layers = tuple(hidden_layers)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.weights_ = None
        self.biases_ = None

    # ------------------------------------------------------------------
    def _forward(self, X):
        """Output probabilities of the fitted network."""
        a = X
        for w, b in zip(self.weights_[:-1], self.biases_[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        return _sigmoid(a @ self.weights_[-1] + self.biases_[-1]).ravel()

    def _fit(self, X, y):
        """Mini-batch SGD over one flat parameter buffer.

        Parameters, velocities and gradients each live in one
        contiguous buffer with per-layer views, and every activation,
        delta and mask is written into a buffer allocated once per
        batch size.  The float ops are :meth:`_forward`'s and the
        textbook backprop's, in the same order, so the weights are
        bit-identical to a per-layer, allocating loop; what goes is
        numpy's per-call overhead (allocations, and one momentum
        update per step instead of four per layer).
        """
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        sizes = [d, *self.hidden_layers, 1]
        n_weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        params = np.zeros(n_weights + sum(sizes[1:]))
        weights, biases = _layer_views(params, sizes)
        for w in weights:
            # He initialisation for the ReLU stacks.
            w[...] = rng.normal(scale=np.sqrt(2.0 / w.shape[0]),
                                size=w.shape)
        grads = np.empty_like(params)
        grads_w, grads_b = _layer_views(grads, sizes)
        velocity = np.zeros_like(params)
        step = np.empty_like(params)
        params_w, grads_all_w = params[:n_weights], grads[:n_weights]
        l2_term = np.empty(n_weights)
        l2, lr, momentum = self.l2, self.learning_rate, self.momentum
        target = y.astype(np.float64)
        depth = len(weights)
        buffers = {}

        for _ in range(self.epochs):
            order = rng.permutation(n)
            x_epoch, t_epoch = X[order], target[order]
            for start in range(0, n, self.batch_size):
                xb = x_epoch[start:start + self.batch_size]
                tb = t_epoch[start:start + self.batch_size]
                rows = len(tb)
                bufs = buffers.get(rows)
                if bufs is None:
                    outs = [np.empty((rows, size)) for size in sizes[1:]]
                    deltas = [np.empty((rows, size)) for size in sizes[1:]]
                    bufs = buffers[rows] = (
                        outs, deltas,
                        [np.empty((rows, size), dtype=bool)
                         for size in sizes[1:-1]],
                        outs[-1].ravel(), deltas[-1].ravel(),
                    )
                outs, deltas, masks, probs, delta_out = bufs

                # Forward: ``a = max(a @ w + b, 0)``, then the sigmoid
                # ``1 / (1 + exp(-clip(z, -35, 35)))``, all in place
                # (clip is ``min(max(z, -35), 35)``, bit for bit).
                a = xb
                for layer in range(depth):
                    z = outs[layer]
                    np.matmul(a, weights[layer], out=z)
                    z += biases[layer]
                    if layer < depth - 1:
                        np.maximum(z, 0.0, out=z)
                    a = z
                np.maximum(probs, -35.0, out=probs)
                np.minimum(probs, 35.0, out=probs)
                np.negative(probs, out=probs)
                np.exp(probs, out=probs)
                probs += 1.0
                np.divide(1.0, probs, out=probs)

                # Backprop of binary cross-entropy through the sigmoid.
                np.subtract(probs, tb, out=delta_out)
                delta_out /= rows
                delta = deltas[-1]
                for layer in range(depth - 1, -1, -1):
                    a_prev = outs[layer - 1] if layer else xb
                    np.matmul(a_prev.T, delta, out=grads_w[layer])
                    np.add.reduce(delta, axis=0, out=grads_b[layer])
                    if layer > 0:
                        below = deltas[layer - 1]
                        np.matmul(delta, weights[layer].T, out=below)
                        mask = masks[layer - 1]
                        np.greater(outs[layer - 1], 0.0, out=mask)
                        below *= mask
                        delta = below
                np.multiply(l2, params_w, out=l2_term)
                grads_all_w += l2_term

                # One momentum update over the whole buffer:
                # ``v = m*v - lr*g; p += v``.
                velocity *= momentum
                np.multiply(lr, grads, out=step)
                velocity -= step
                params += velocity

        self.weights_ = weights
        self.biases_ = biases

    def _decision(self, X):
        return self._forward(X) - 0.5

    def predict_proba(self, X):
        self._require_fitted()
        return self._forward(np.asarray(X, dtype=np.float64))
