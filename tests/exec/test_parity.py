"""End-to-end determinism: parallel sweeps match the serial reference.

These are the tentpole's acceptance tests: same root seed → the
``--jobs N`` run renders the same report and builds the same ledger
manifest as the serial run, even when the parallel run was killed
mid-sweep and resumed from the cell cache.
"""

import pytest

from repro.core.experiments import run_fig4, run_fig5
from repro.exec import CellCache, RunContext, SweepProgress, backend_for
from repro.obs.ledger import manifest_bytes

from tests.exec.cells import kill_fig5_attempt_wave, result_manifest

#: Small enough for CI, wide enough (6 cells, 3 waves) to exercise
#: cross-wave scheduling.
FIG5_KNOBS = dict(
    seed=8, attempts=2, detector_names=("lr", "nn"), training_benign=40,
    training_attack=40, attempt_samples=12, attempt_benign=6,
)

#: The warm pool at --jobs 2.
POOL = RunContext(backend=backend_for(2))


def _manifest_bytes(result):
    return manifest_bytes(result_manifest(result, FIG5_KNOBS))


class TestSerialParallelParity:
    def test_fig5_report_and_manifest_byte_identical(self):
        serial = run_fig5(**FIG5_KNOBS)
        parallel = run_fig5(**FIG5_KNOBS, context=POOL)

        assert parallel.format() == serial.format()
        assert parallel.sweep.statuses == serial.sweep.statuses
        assert _manifest_bytes(parallel) == _manifest_bytes(serial)

    def test_fig4_accuracies_identical(self):
        knobs = dict(seed=8, hosts=("basicmath", "sha"),
                     feature_sizes=(4,), classifier="lr",
                     benign_per_host=30, attack_per_variant=10,
                     variants=("v1",))
        assert run_fig4(**knobs, context=POOL).accuracies == \
            run_fig4(**knobs).accuracies


class TestKillMidSweepResume:
    def test_parallel_kill_then_resume_matches_uninterrupted(
            self, tmp_path):
        # Reference: one uninterrupted serial run, no cache.
        reference = run_fig5(**FIG5_KNOBS)

        # Run 1: parallel, killed (^C) while the attempt wave runs —
        # after the training cell completed and landed in the cache.
        cache_root = tmp_path / "cellcache"
        killed_cache = CellCache(cache_root)
        kill_fig5_attempt_wave(FIG5_KNOBS, killed_cache)

        # The kill lost nothing completed: the training cell survived.
        assert killed_cache.puts >= 1

        # Run 2: resume in parallel; must match the uninterrupted run.
        resumed = run_fig5(**FIG5_KNOBS, context=RunContext(
            backend=backend_for(2), cell_cache=CellCache(cache_root)))
        assert resumed.sweep.statuses["training"]["status"] == "cached"
        assert resumed.format() == reference.format()
        assert _manifest_bytes(resumed) == _manifest_bytes(reference)


class _FakeClock:
    """Deterministic stand-in for time.monotonic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestProgress:
    def test_progress_lines_and_eta(self):
        import io

        stream = io.StringIO()
        clock = _FakeClock()
        progress = SweepProgress(stream=stream, clock=clock)
        progress.start("toy", 3)
        clock.now = 2.0
        progress.update("a", "ok", 2.0)
        clock.now = 2.1
        progress.update("b", "cached", 0.0)
        clock.now = 6.1
        progress.update("c", "ok", 4.0)
        lines = stream.getvalue().splitlines()
        assert lines[0] == \
            "[toy 1/3]     ok a (2.0s)  0.50 cells/s  eta ~4.0s"
        assert "cached" in lines[1]
        assert "eta" not in lines[2]  # final line: nothing remaining

    def test_eta_uses_observed_wall_clock_throughput(self):
        # Batch-aware: four cells of 8s worker time landing together at
        # wall 8s mean 0.5 cells/s of real throughput (4 workers), so
        # the one remaining cell is ~2s out -- not 8s as a serial
        # mean-cell-time model would claim.
        clock = _FakeClock()
        progress = SweepProgress(clock=clock)
        progress.start("toy", 5)
        clock.now = 8.0
        for key in ("a", "b", "c", "d"):
            progress.update(key, "ok", 8.0)
        assert progress.cells_per_second() == pytest.approx(0.5)
        assert progress.eta_seconds() == pytest.approx(2.0)

    def test_cached_cells_excluded_from_estimate(self):
        clock = _FakeClock()
        progress = SweepProgress(clock=clock)
        progress.start("toy", 4)
        progress.update("a", "cached", 0.0)
        assert progress.eta_seconds() is None
        clock.now = 6.0
        progress.update("b", "ok", 6.0)
        assert progress.eta_seconds() == pytest.approx(12.0)

    def test_cache_ratio_on_line(self):
        import io

        from repro.exec import CellCache

        stream = io.StringIO()
        clock = _FakeClock()
        cache = CellCache("unused")
        cache.hits, cache.misses = 3, 1
        progress = SweepProgress(stream=stream, cell_cache=cache,
                                 clock=clock)
        progress.start("toy", 2)
        clock.now = 1.0
        progress.update("a", "ok", 1.0)
        assert "cache 3/4" in stream.getvalue()
