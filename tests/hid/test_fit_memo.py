"""The fit memo: a detector fitted on the same inputs with the same
hyper-parameters is trained once per sweep scope and restored after
that, as an independent copy, with every output byte unchanged."""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.hid import Dataset, OnlineHidDetector, make_classifier
from repro.hid.memo import active_memos, memo_scope

FEATURES = ("a", "b", "c", "d")


def _dataset(n=48, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, len(FEATURES))) + 1.5 * y[:, None]
    return Dataset(X, y, FEATURES)


def _arrays(model):
    return [w.copy() for w in model.weights_ + model.biases_]


def _fit(X, y, name="mlp", seed=0, **kwargs):
    return make_classifier(name, seed=seed, epochs=5, **kwargs).fit(X, y)


@pytest.mark.parametrize("name", ["mlp", "nn", "lr", "svm"])
def test_a_hit_restores_the_missed_fit(name):
    data = _dataset()
    with memo_scope() as memos:
        first = _fit(data.X, data.y, name)
        second = _fit(data.X, data.y, name)
        assert memos.fits.counts() == {"hits": 1, "misses": 1, "stored": 1}
    unscoped = _fit(data.X, data.y, name)
    for model in (first, second):
        assert np.array_equal(model.decision_function(data.X),
                              unscoped.decision_function(data.X))


def test_a_hit_is_independent_of_other_detectors():
    data, extra = _dataset(), _dataset(n=10, seed=1)
    with memo_scope() as memos:
        one = OnlineHidDetector(features=FEATURES).fit(data)
        two = OnlineHidDetector(features=FEATURES).fit(data)
        assert memos.fits.hits == 1
        before = _arrays(two.classifier)
        # A refit of one detector, and an in-place edit of its arrays,
        # reach neither the other detector nor the stored entry.
        one.observe(extra)
        one.classifier.weights_[0][...] = 7.0
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, _arrays(two.classifier)))
        three = OnlineHidDetector(features=FEATURES).fit(data)
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, _arrays(three.classifier)))
        # observe refits a clone, through the same memo.
        four = OnlineHidDetector(features=FEATURES).fit(data)
        four.observe(extra)
        assert memos.fits.counts() == {"hits": 4, "misses": 2, "stored": 2}


@pytest.mark.parametrize("change", ["hyperparameter", "x_byte", "y_label",
                                    "seed", "class"])
def test_any_key_change_is_a_miss(change):
    data = _dataset()
    X, y = data.X.copy(), data.y.copy()
    kwargs, name, seed = {}, "mlp", 0
    if change == "hyperparameter":
        kwargs = {"l2": 2e-4}
    elif change == "x_byte":
        X.view(np.uint8)[5] ^= 1
    elif change == "y_label":
        y[3] ^= 1
    elif change == "seed":
        seed = 1
    else:
        name = "nn"
    with memo_scope() as memos:
        _fit(data.X, data.y)
        _fit(X, y, name, seed, **kwargs)
        assert memos.fits.counts() == {"hits": 0, "misses": 2, "stored": 2}


def test_nothing_is_shared_outside_a_scope():
    data = _dataset()
    assert active_memos() is None
    for _ in range(2):
        with memo_scope() as memos:
            _fit(data.X, data.y)
            assert memos.fits.counts() == {"hits": 0, "misses": 1,
                                           "stored": 1}
    assert active_memos() is None


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_smoke_stdout_is_unchanged(tmp_path, monkeypatch, capsys):
    """``repro smoke --seed 1``: faulted fits still fault, per call."""
    monkeypatch.chdir(tmp_path)
    assert main(["smoke", "--seed", "1"]) == 4
    assert _sha(capsys.readouterr().out) == (
        "16aa2bffc1e74ae1ccc4f171337e1d660c101548421a28a036dff3600552de7c")


def test_traced_quick_fig5_is_unchanged(tmp_path, monkeypatch, capsys):
    """24 of fig5's 28 fits are replays; the ``hid.train`` spans, the
    report and the trace bytes are those of 28 trainings."""
    monkeypatch.chdir(tmp_path)
    assert main(["fig5", "--quick", "--trace", "--trace-out", "tr",
                 "--no-ledger", "--no-cell-cache"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "13ae853fc7f0cf0605b355e9a848b3b81938ff00e2cd3e96b2370fcadb5206be")
    trace = (tmp_path / "tr" / "fig5.trace.jsonl").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == (
        "37687f2dc977f6c2802a8d0ad57354b0a19db2b17a702286df150ed05a8dca67")
