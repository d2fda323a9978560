"""Golden determinism across executors, with the cell cache armed.

The tentpole's end-to-end acceptance: the same experiment produces the
same artefacts whether it runs serially, on the warm worker pool, or is
killed mid-sweep and resumed from the cell cache — *with* the fast
interpreter loop and cell memoization on.  Reports and manifests must be
byte-identical, and ``repro compare`` between the cold ledger run and a
warm (memoized, parallel) ledger run must exit 0.
"""

import json

from repro.cli import EXIT_OK, main
from repro.core.experiments import run_fig5
from repro.exec import CellCache, ProcessPoolBackend, RunContext
from repro.obs.ledger import manifest_bytes

from tests.exec.cells import (
    fig5_manifest,
    kill_fig5_attempt_wave,
    result_manifest,
)

#: Same cross-wave shape the parity tests use: 6 cells, 3 waves.
FIG5_KNOBS = dict(
    seed=8, attempts=2, detector_names=("lr", "nn"), training_benign=40,
    training_attack=40, attempt_samples=12, attempt_benign=6,
)

FIG5_CLI = ["fig5", "--quick", "--seed", "8"]


def _run_dir(ledger):
    [run_dir] = [path for path in ledger.iterdir()
                 if (path / "manifest.json").is_file()]
    return run_dir


def _killed_then_resumed(knobs, cache_root):
    """Kill a pool run of *knobs* in the attempt wave, then resume it."""
    kill_fig5_attempt_wave(knobs, CellCache(cache_root))
    resumed_cache = CellCache(cache_root)
    resumed = run_fig5(**knobs, context=RunContext(
        backend=ProcessPoolBackend(2), cell_cache=resumed_cache))
    assert resumed_cache.hits > 0
    return resumed


def _manifest_bytes(result, knobs):
    return manifest_bytes(result_manifest(result, knobs))


class TestColdVsWarmLedgerRuns:
    def test_compare_exits_zero_and_cache_hits(self, tmp_path, capsys):
        cold_ledger = tmp_path / "cold"
        warm_ledger = tmp_path / "warm"

        assert main(FIG5_CLI + ["--ledger", str(cold_ledger)]) == EXIT_OK
        cold_out = capsys.readouterr().out

        # Warm run: parallel, fed from the cold run's cell cache.
        assert main(FIG5_CLI + ["--jobs", "2",
                                "--ledger", str(warm_ledger),
                                "--cell-cache",
                                str(cold_ledger / "cellcache")]) == EXIT_OK
        warm_out = capsys.readouterr().out

        # Same stdout artefact.
        assert warm_out == cold_out

        # The warm run really was served from the cache ...
        manifest = json.loads(
            (_run_dir(warm_ledger) / "manifest.json").read_text()
        )
        cache_stats = manifest["timing"]["cell_cache"]
        assert cache_stats["enabled"]
        lookups = cache_stats["hits"] + cache_stats["misses"]
        assert lookups > 0
        assert cache_stats["hits"] / lookups >= 0.9

        # ... and the ledger diff is clean: memoization and parallelism
        # are invisible to everything compare checks.
        assert main(["compare", str(_run_dir(cold_ledger)),
                     str(_run_dir(warm_ledger))]) == EXIT_OK


class TestKillResumeWithCacheAndPool:
    def test_resumed_warm_parallel_run_matches_reference(self, tmp_path):
        # Reference: uninterrupted serial run, no cache.
        reference = run_fig5(**FIG5_KNOBS)

        # Killed on the pool while the attempt wave runs, then resumed
        # on the pool: the cached training cell and the recomputed
        # attempts must fuse into the byte-identical reference.
        resumed = _killed_then_resumed(FIG5_KNOBS, tmp_path / "cellcache")
        assert resumed.format() == reference.format()
        assert _manifest_bytes(resumed, FIG5_KNOBS) == \
            _manifest_bytes(reference, FIG5_KNOBS)


class TestOooGoldenDeterminism:
    """The out-of-order core's sweeps are as deterministic as the
    in-order core's: the same ``--uarch ooo`` fig5 run is byte-identical
    whether it executes serially, on the warm worker pool, or killed on
    the pool and resumed from the cell cache."""

    KNOBS = {"host": "basicmath", "uarch": "ooo",
             **{k: v for k, v in FIG5_KNOBS.items() if k != "seed"}}

    def test_serial_pool_byte_identical(self):
        reference = manifest_bytes(
            fig5_manifest(self.KNOBS, 8, backend=None)
        )
        pooled = fig5_manifest(self.KNOBS, 8,
                               backend=ProcessPoolBackend(2))
        assert manifest_bytes(pooled) == reference

    def test_killed_resumed_run_matches_reference(self, tmp_path):
        knobs = dict(FIG5_KNOBS, uarch="ooo")
        reference = run_fig5(**knobs)
        resumed = _killed_then_resumed(knobs, tmp_path / "cellcache")
        assert resumed.format() == reference.format()
        assert _manifest_bytes(resumed, knobs) == \
            _manifest_bytes(reference, knobs)

    def test_uarch_is_part_of_the_run_identity(self):
        """inorder and ooo runs of the same knobs land under different
        run_ids (and genuinely different headline numbers may follow)."""
        inorder_knobs = dict(self.KNOBS, uarch="inorder")
        ooo = fig5_manifest(self.KNOBS, 8, backend=None)
        inorder = fig5_manifest(inorder_knobs, 8, backend=None)
        assert ooo["run_id"] != inorder["run_id"]
        assert ooo["config"]["uarch"] == "ooo"
        assert inorder["config"]["uarch"] == "inorder"
