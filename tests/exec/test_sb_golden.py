"""Golden determinism across *engines*: sb ≡ step at the artefact level.

The superblock engine is deliberately ambient — not part of manifests,
run ids or cell cache keys — so its acceptance test lives here: the
same quick experiment run under ``--engine sb`` and under the step
reference must produce ledger runs that ``repro compare`` calls
identical, on both microarchitectures, and a killed-and-resumed
parallel sb run (closures die mid-sweep, shards survive) must fuse
into the byte-identical step-reference artefact.
"""

import pytest

from repro.cli import EXIT_OK, main
from repro.core.experiments import run_fig5
from repro.core.experiments.fig5 import fig5_meta, plan_fig5
from repro.cpu import engine_override
from repro.exec import CellCache, ProcessPoolBackend, execute_plan, open_store

FIG5_KNOBS = dict(
    seed=8, attempts=2, detector_names=("lr", "nn"), training_benign=40,
    training_attack=40, attempt_samples=12, attempt_benign=6,
)


def _run_dir(ledger):
    [run_dir] = [path for path in ledger.iterdir()
                 if (path / "manifest.json").is_file()]
    return run_dir


class TestEngineCompareParity:
    """``repro compare`` exits 0 between sb and step ledger runs."""

    @pytest.mark.parametrize("fig", ("fig4", "fig5"))
    @pytest.mark.parametrize("uarch", ("inorder", "ooo"))
    def test_quick_run_compares_clean(self, tmp_path, fig, uarch):
        cli = [fig, "--quick", "--seed", "8", "--uarch", uarch]
        sb_ledger = tmp_path / "sb"
        step_ledger = tmp_path / "step"
        with engine_override("sb"):
            assert main(cli + ["--ledger", str(sb_ledger)]) == EXIT_OK
        with engine_override("step"):
            assert main(cli + ["--ledger", str(step_ledger)]) == EXIT_OK
        assert main(["compare", str(_run_dir(sb_ledger)),
                     str(_run_dir(step_ledger))]) == EXIT_OK

    def test_engine_flag_reaches_the_ambient_mode(self, tmp_path, capsys):
        # The CLI spelling of the same contract: --engine step and
        # --engine sb runs of one experiment compare clean.
        from repro.cpu import engine_mode, set_engine_mode

        previous = engine_mode()
        sb_ledger = tmp_path / "sb"
        step_ledger = tmp_path / "step"
        try:
            assert main(["--engine", "sb", "fig5", "--quick", "--seed",
                         "8", "--ledger", str(sb_ledger)]) == EXIT_OK
            assert main(["--engine", "step", "fig5", "--quick", "--seed",
                         "8", "--ledger", str(step_ledger)]) == EXIT_OK
        finally:
            set_engine_mode(previous)
        assert main(["compare", str(_run_dir(sb_ledger)),
                     str(_run_dir(step_ledger))]) == EXIT_OK


class TestSuperblockKillResume:
    """Kill+resume while translated blocks run in pool workers.

    Closures are executing inside pool workers when the interrupt
    lands; the surviving checkpoint shards plus the re-run cells (all
    translated code) must still reproduce the step reference bytes.
    """

    def test_killed_resumed_sb_run_matches_step_reference(self, tmp_path):
        # Reference: uninterrupted serial run on the step engine.
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        with engine_override("step"):
            reference = run_fig5(checkpoint=reference_dir, **FIG5_KNOBS)

        # Run 1 (sb): warm pool, killed while the attempt wave runs.
        cache_root = tmp_path / "cellcache"
        killed_dir = tmp_path / "killed"
        killed_dir.mkdir()
        plan = plan_fig5(**FIG5_KNOBS)
        for cell in plan:
            if cell.key.startswith("spectre/"):
                cell.fn = _interrupt
        store = open_store(killed_dir, "fig5", fig5_meta(
            FIG5_KNOBS["seed"], "basicmath", FIG5_KNOBS["attempts"],
            FIG5_KNOBS["detector_names"], FIG5_KNOBS["training_benign"],
            FIG5_KNOBS["training_attack"], FIG5_KNOBS["attempt_samples"],
            FIG5_KNOBS["attempt_benign"],
        ))
        with engine_override("sb"):
            with pytest.raises(KeyboardInterrupt):
                execute_plan(plan, store=store,
                             backend=ProcessPoolBackend(2),
                             cell_cache=CellCache(cache_root))

            # Run 2 (sb): resume on the pool; surviving shard + rerun
            # cells fuse into the reference artefact, byte for byte.
            resumed = run_fig5(checkpoint=killed_dir, jobs=2,
                               cell_cache=CellCache(cache_root),
                               **FIG5_KNOBS)
        assert resumed.format() == reference.format()
        assert (killed_dir / "fig5.json").read_bytes() == \
            (reference_dir / "fig5.json").read_bytes()


def _interrupt(**kwargs):
    raise KeyboardInterrupt
