"""Golden determinism across *engines*: sb ≡ step at the artefact level.

The superblock engine is deliberately ambient — not part of manifests,
run ids or cell cache keys — so its acceptance test lives here: the
same quick experiment run under ``--engine sb`` and under the step
reference must produce ledger runs that ``repro compare`` calls
identical (fig4 and fig5 on both microarchitectures, table1 in order), and a killed-and-resumed
parallel sb run (closures die mid-sweep, completed cells survive in
the cell cache) must fuse into the byte-identical step-reference
artefact.
"""

import pytest

from repro.cli import EXIT_OK, main
from repro.core.experiments import run_fig5
from repro.cpu import engine_override
from repro.exec import CellCache, ProcessPoolBackend, RunContext
from repro.obs.ledger import manifest_bytes

from tests.exec.cells import kill_fig5_attempt_wave, result_manifest

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

    # table1 (in order) is where execve re-translation and co-scheduled
    # cache switches exercise the dispatcher most.
    @pytest.mark.parametrize("uarch, fig", [
        ("inorder", "fig4"), ("inorder", "fig5"), ("inorder", "table1"),
        ("ooo", "fig4"), ("ooo", "fig5"),
    ])
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
    lands; the cells the cell cache kept plus the re-run cells (all
    translated code) must still reproduce the step reference bytes.
    """

    def test_killed_resumed_sb_run_matches_step_reference(self, tmp_path):
        # Reference: uninterrupted serial run on the step engine.
        with engine_override("step"):
            reference = run_fig5(**FIG5_KNOBS)

        # Run 1 (sb): warm pool, killed while the attempt wave runs.
        cache_root = tmp_path / "cellcache"
        with engine_override("sb"):
            kill_fig5_attempt_wave(FIG5_KNOBS, CellCache(cache_root))

            # Run 2 (sb): resume on the pool; cached cells + rerun
            # cells fuse into the reference artefact, byte for byte.
            resumed_cache = CellCache(cache_root)
            resumed = run_fig5(**FIG5_KNOBS, context=RunContext(
                backend=ProcessPoolBackend(2), cell_cache=resumed_cache))
        assert resumed_cache.hits > 0
        assert resumed.format() == reference.format()
        assert manifest_bytes(result_manifest(resumed, FIG5_KNOBS)) == \
            manifest_bytes(result_manifest(reference, FIG5_KNOBS))
