"""The flat-buffer SGD kernels against the allocating loops they replaced.

The oracles below are the per-layer MLP loop (which ``DeepNnClassifier``
shares) and the per-batch-gather SVM loop, kept verbatim.  The kernels
promise the same float ops in the same order, so every weight, bias and
prediction must be ``np.array_equal`` — not merely close — on every
shape, including a lone row, a lone feature and batches with a short
tail.
"""

import numpy as np
import pytest

from repro.hid.classifiers import make_classifier


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _oracle_mlp(model, X, y):
    """The per-layer, allocating mini-batch SGD loop."""
    n, d = X.shape
    rng = np.random.default_rng(model.seed)
    sizes = [d, *model.hidden_layers, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    target = y.astype(np.float64)
    for _ in range(model.epochs):
        order = rng.permutation(n)
        for start in range(0, n, model.batch_size):
            batch = order[start:start + model.batch_size]
            xb, tb = X[batch], target[batch]
            activations = [xb]
            a = xb
            for w, b in zip(weights[:-1], biases[:-1]):
                a = np.maximum(a @ w + b, 0.0)
                activations.append(a)
            probs = _sigmoid(a @ weights[-1] + biases[-1]).ravel()
            delta = ((probs - tb) / len(batch))[:, None]
            grads_w = [None] * len(weights)
            grads_b = [None] * len(biases)
            for layer in range(len(weights) - 1, -1, -1):
                a_prev = activations[layer]
                grads_w[layer] = a_prev.T @ delta + model.l2 * weights[layer]
                grads_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = delta @ weights[layer].T
                    delta *= (activations[layer] > 0.0)
            for layer in range(len(weights)):
                vel_w[layer] *= model.momentum
                vel_w[layer] -= model.learning_rate * grads_w[layer]
                vel_b[layer] *= model.momentum
                vel_b[layer] -= model.learning_rate * grads_b[layer]
                weights[layer] += vel_w[layer]
                biases[layer] += vel_b[layer]
    return weights, biases


def _oracle_svm(model, X, y):
    """The per-batch-gather hinge-loss SGD loop."""
    n, d = X.shape
    rng = np.random.default_rng(model.seed)
    w = np.zeros(d)
    b = 0.0
    signs = np.where(y == 1, 1.0, -1.0)
    step = model.learning_rate
    for epoch in range(model.epochs):
        order = rng.permutation(n)
        for start in range(0, n, model.batch_size):
            batch = order[start:start + model.batch_size]
            xb, sb = X[batch], signs[batch]
            margins = sb * (xb @ w + b)
            active = margins < 1.0
            grad_w = w.copy()
            grad_b = 0.0
            if np.any(active):
                grad_w -= model.c * (
                    (sb[active][:, None] * xb[active]).mean(axis=0)
                    * np.sum(active) / len(batch)
                )
                grad_b -= model.c * float(sb[active].sum() / len(batch))
            w -= step * grad_w
            b -= step * grad_b
        step = model.learning_rate / (1.0 + 0.01 * epoch)
    return [w], [np.array([b])]


def _data(n, d, seed):
    """Overlapping classes on a feature scale the scaler would give."""
    rng = np.random.default_rng(1000 * n + d + seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    if n > 1:
        y[0], y[1] = 0, 1
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    return X, y


def _fitted(model):
    if model.name == "svm":
        return [model.weights_], [np.array([model.bias_])]
    return model.weights_, model.biases_


SHAPES = [(n, d) for n in (1, 31, 32, 33, 56, 126) for d in (1, 2, 4, 16)]


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("name,epochs", [("mlp", 12), ("nn", 4),
                                         ("svm", 12)])
def test_kernel_is_bit_identical_to_the_allocating_loop(name, epochs, n, d):
    X, y = _data(n, d, seed=epochs)
    model = make_classifier(name, seed=n + d, epochs=epochs)
    model.fit(X, y)
    oracle = make_classifier(name, seed=n + d, epochs=epochs)
    expect_w, expect_b = (_oracle_svm if name == "svm"
                          else _oracle_mlp)(oracle, X, y)
    got_w, got_b = _fitted(model)
    assert len(got_w) == len(expect_w)
    for got, expect in zip(got_w + got_b, expect_w + expect_b):
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)
    # Predictions through the fitted views match the oracle's arrays.
    if name == "svm":
        oracle.weights_, oracle.bias_ = expect_w[0], float(expect_b[0][0])
    else:
        oracle.weights_, oracle.biases_ = expect_w, expect_b
    oracle._fitted = True
    probe, _ = _data(n + 7, d, seed=99)
    assert np.array_equal(model.decision_function(probe),
                          oracle.decision_function(probe))
    assert np.array_equal(model.predict(probe), oracle.predict(probe))


@pytest.mark.parametrize("name", ("mlp", "nn"))
def test_default_epochs_stay_bit_identical(name):
    """Full-length training: long momentum runs amplify any drift."""
    X, y = _data(56, 4, seed=0)
    model = make_classifier(name, seed=3).fit(X, y)
    expect_w, expect_b = _oracle_mlp(make_classifier(name, seed=3), X, y)
    for got, expect in zip(model.weights_ + model.biases_,
                           expect_w + expect_b):
        assert np.array_equal(got, expect)
