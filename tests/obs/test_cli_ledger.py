"""CLI coverage: the ledger workflow (record -> compare/gate/report).

The experiment runs here are quick fig4 invocations (seconds each);
compare/gate/report then operate on the recorded manifests only, so
the workflow tests stay fast.
"""

import json

import pytest

from repro.cli import EXIT_FATAL, EXIT_GATE, EXIT_OK, main
from repro.obs import load_manifest, manifest_bytes, read_index
from repro.obs.gate import EXPECTATIONS_FORMAT

ARGS = ["fig4", "--quick", "--seed", "3"]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One recorded quick-fig4 run (traced), shared by the workflow
    tests below."""
    root = tmp_path_factory.mktemp("ledger")
    assert main(ARGS + ["--trace", "--ledger", str(root)]) == EXIT_OK
    entries = read_index(root)
    assert len(entries) == 1
    return root, entries[0]["run_id"]


def _expectations(tmp_path, bands):
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps({
        "format": EXPECTATIONS_FORMAT,
        "profiles": {"quick": {"fig4": bands}},
    }))
    return str(path)


class TestRecording:
    def test_manifest_and_traces_in_run_dir(self, ledger):
        root, run_id = ledger
        run_dir = root / run_id
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "fig4.trace.jsonl").is_file()
        assert (run_dir / "fig4.chrome.json").is_file()
        manifest = load_manifest(run_id, ledger_dir=root)
        assert manifest["experiment"] == "fig4"
        assert manifest["headlines"]["hid_accuracy_size4"] > 0.8
        assert manifest["traces"]["jsonl"]["path"] == "fig4.trace.jsonl"
        assert manifest["timing"]["wall_s"] > 0

    def test_timing_section_fields(self, ledger):
        """``repro compare`` ignores ``timing``, so its fields are
        pinned here: a field the CLI stops recording fails this test."""
        root, run_id = ledger
        manifest = load_manifest(run_id, ledger_dir=root)
        timing = manifest["timing"]
        assert set(timing) == {"wall_s", "started_at", "phases", "backend",
                               "cells", "cell_cache", "profile_memo",
                               "fit_memo", "peak_rss_mb"}
        assert timing["peak_rss_mb"] > 0
        assert set(timing["phases"]) == {"schedule", "cache_lookup",
                                         "compute", "ipc", "merge"}
        assert set(timing["cells"]) == {cell["key"]
                                        for cell in manifest["cells"]}
        assert timing["backend"] == "serial"
        assert timing["cell_cache"]["enabled"] is True
        for memo in ("profile_memo", "fit_memo"):
            assert set(timing[memo]) == {"hits", "misses", "stored"}
        assert timing["fit_memo"]["misses"] > 0

    def test_no_ledger_opt_out(self, tmp_path, capsys):
        assert main(ARGS + ["--no-ledger"]) == EXIT_OK
        assert "ledger:" not in capsys.readouterr().err

    def test_interrupted_resume_matches_uninterrupted(self, tmp_path,
                                                      monkeypatch):
        """Acceptance: an interrupted + resumed run's manifest is
        byte-identical (minus wall clock) to an uninterrupted one."""
        from repro.core.experiments import fig4

        from tests.exec.cells import interrupt_after

        cache = tmp_path / "cache"
        uninterrupted = tmp_path / "a"
        resumed = tmp_path / "b"
        traced = ARGS + ["--trace", "--cell-cache", str(cache)]
        # Uninterrupted reference run.
        assert main(ARGS + ["--trace", "--ledger",
                            str(uninterrupted)]) == EXIT_OK
        # Interrupted run: ^C after two of the four hosts completed...
        real_host_cell = fig4._host_cell
        monkeypatch.setattr(fig4, "_host_cell",
                            interrupt_after(real_host_cell, 2))
        with pytest.raises(KeyboardInterrupt):
            main(traced + ["--no-ledger"])
        monkeypatch.setattr(fig4, "_host_cell", real_host_cell)
        # ...and the resumed run replays them from the cell cache.
        assert main(traced + ["--ledger", str(resumed)]) == EXIT_OK
        run_id = read_index(uninterrupted)[0]["run_id"]
        a = load_manifest(run_id, ledger_dir=uninterrupted)
        b = load_manifest(run_id, ledger_dir=resumed)
        assert b["timing"]["cell_cache"]["hits"] == 2
        assert manifest_bytes(a) == manifest_bytes(b)


class TestCompareCommand:
    def test_same_seed_zero_diffs(self, ledger, tmp_path, capsys):
        root, run_id = ledger
        other = tmp_path / "other"
        assert main(ARGS + ["--trace", "--ledger", str(other)]) == EXIT_OK
        capsys.readouterr()
        assert main(["compare", str(root / run_id),
                     str(other / run_id)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 differing field(s)" in out
        assert "identical" in out

    def test_different_seed_names_divergent_subsystem(self, ledger,
                                                      tmp_path, capsys):
        root, run_id = ledger
        other = tmp_path / "other"
        assert main(["fig4", "--quick", "--seed", "4", "--trace",
                     "--ledger", str(other)]) == EXIT_OK
        other_id = read_index(other)[0]["run_id"]
        capsys.readouterr()
        code = main(["compare", str(root / run_id),
                     str(other / other_id)])
        out = capsys.readouterr().out
        assert code == EXIT_GATE
        assert "config" in out
        assert "seed" in out
        # Trace localisation pins the first divergent span's subsystem.
        assert "first diverges in subsystem [" in out

    def test_missing_run_is_fatal(self, tmp_path, capsys):
        assert main(["compare", "nope-1", "nope-2",
                     "--ledger", str(tmp_path)]) == EXIT_FATAL
        assert "no run manifest" in capsys.readouterr().err


class TestGateCommand:
    def test_current_headlines_pass(self, ledger, tmp_path, capsys):
        root, run_id = ledger
        expectations = _expectations(
            tmp_path, {"hid_accuracy_size4": {"min": 0.8}}
        )
        assert main(["gate", run_id, "--ledger", str(root),
                     "--expectations", expectations]) == EXIT_OK
        assert "[PASS]" in capsys.readouterr().out

    def test_committed_expectations_pass(self, ledger, capsys):
        root, run_id = ledger
        assert main(["gate", run_id, "--ledger", str(root)]) == EXIT_OK
        assert "[PASS]" in capsys.readouterr().out

    def test_tightened_band_regresses(self, ledger, tmp_path, capsys):
        root, run_id = ledger
        expectations = _expectations(
            tmp_path, {"hid_accuracy_size4": {"min": 0.999}}
        )
        assert main(["gate", run_id, "--ledger", str(root),
                     "--expectations", expectations]) == EXIT_GATE
        assert "[REGRESSION]" in capsys.readouterr().out

    def test_uncovered_profile_is_fatal_not_pass(self, ledger, tmp_path,
                                                 capsys):
        root, run_id = ledger
        expectations = _expectations(
            tmp_path, {"hid_accuracy_size4": {"min": 0.8}}
        )
        assert main(["gate", run_id, "--ledger", str(root),
                     "--expectations", expectations,
                     "--profile", "nope"]) == EXIT_FATAL
        assert "no profile" in capsys.readouterr().err


class TestReportCommand:
    def test_writes_dashboard_next_to_manifest(self, ledger, capsys):
        root, run_id = ledger
        assert main(["report", run_id, "--ledger", str(root)]) == EXIT_OK
        report = root / run_id / "report.html"
        assert report.is_file()
        html_text = report.read_text()
        assert "<script" not in html_text
        assert "hid_accuracy_size4" in html_text
        assert "<svg" in html_text

    def test_explicit_output_and_gate_colouring(self, ledger, tmp_path,
                                                capsys):
        root, run_id = ledger
        out = tmp_path / "dash.html"
        expectations = _expectations(
            tmp_path, {"hid_accuracy_size4": {"min": 0.999}}
        )
        assert main(["report", run_id, "--ledger", str(root),
                     "--html", str(out),
                     "--expectations", expectations]) == EXIT_OK
        assert 'class="tile fail"' in out.read_text()
