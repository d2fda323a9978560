"""Kill a sweep mid-run, re-invoke it, and watch it resume.

The contract: a sweep killed between cells loses nothing it completed;
the re-run against the same cell cache replays the completed cells and
only computes the rest.
"""

import pytest

from repro.core.experiments import fig6, run_fig4, run_fig6
from repro.exec import CellCache, RunContext

FIG6_KNOBS = dict(
    seed=8, attempts=2, detector_names=("lr",), training_benign=40,
    training_attack=40, attempt_samples=12, attempt_benign=6,
)


def _cached(cache_root):
    return RunContext(cell_cache=CellCache(cache_root))


def _killed_in_spectre_phase(monkeypatch, cache_root, **knobs):
    """Run fig6 until the spectre phase starts, then ^C it."""
    real_train_detectors = fig6.train_detectors

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(fig6, "train_detectors", killed)
    cache = CellCache(cache_root)
    with pytest.raises(KeyboardInterrupt):
        run_fig6(**knobs, context=RunContext(cell_cache=cache))
    monkeypatch.setattr(fig6, "train_detectors", real_train_detectors)
    return cache


class TestFig6KillAndResume:
    def test_kill_after_training_then_resume(self, tmp_path, monkeypatch):
        # ---- first invocation: dies (SIGINT) entering the spectre phase.
        killed = _killed_in_spectre_phase(monkeypatch, tmp_path,
                                          **FIG6_KNOBS)
        # The completed cell survived the kill, atomically.
        assert killed.puts == 1

        # ---- second invocation: resumes from the cell cache.
        result = run_fig6(**FIG6_KNOBS, context=_cached(tmp_path))
        assert result.sweep.statuses["training"]["status"] == "cached"
        assert result.sweep.statuses["spectre"]["status"] == "ok"
        assert result.sweep.statuses["crspectre"]["status"] == "ok"
        assert not result.partial
        assert len(result.crspectre["lr"]) == FIG6_KNOBS["attempts"]
        assert len(result.attacker_history) == FIG6_KNOBS["attempts"]
        assert result.format() == run_fig6(**FIG6_KNOBS).format()

        # ---- third invocation: everything is served from the cache.
        rerun = run_fig6(**FIG6_KNOBS, context=_cached(tmp_path))
        assert all(cell["status"] == "cached"
                   for cell in rerun.sweep.statuses.values())
        assert rerun.crspectre == result.crspectre
        assert [r.params for r in rerun.attacker_history] == \
            [r.params for r in result.attacker_history]

    def test_different_seed_computes_every_cell(self, tmp_path,
                                                monkeypatch):
        _killed_in_spectre_phase(monkeypatch, tmp_path, **FIG6_KNOBS)
        # Same cache, different seed: the training cell keyed by the
        # old seed must not be replayed into the new sweep.
        knobs = dict(FIG6_KNOBS, seed=9)
        cache = CellCache(tmp_path)
        result = run_fig6(**knobs, context=RunContext(cell_cache=cache))
        assert cache.hits == 0
        assert all(cell["status"] == "ok"
                   for cell in result.sweep.statuses.values())


class TestFig4Resume:
    def test_cached_rerun_reproduces_accuracies(self, tmp_path):
        knobs = dict(
            seed=8, hosts=("basicmath",), feature_sizes=(4,),
            classifier="lr", benign_per_host=30, attack_per_variant=10,
            variants=("v1",),
        )
        first = run_fig4(**knobs, context=_cached(tmp_path))
        assert first.sweep.statuses["host/basicmath"]["status"] == "ok"
        resumed = run_fig4(**knobs, context=_cached(tmp_path))
        assert resumed.sweep.statuses["host/basicmath"]["status"] == \
            "cached"
        assert resumed.accuracies == first.accuracies
