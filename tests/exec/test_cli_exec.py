"""CLI surface of the exec subsystem: --jobs and --list-cells."""

import json

import pytest

from repro.cli import EXIT_OK, build_parser, main


class TestParser:
    def test_jobs_and_list_cells_on_every_experiment(self):
        for name in ("fig4", "fig5", "fig6", "table1", "hardening"):
            args = build_parser().parse_args([name, "--jobs", "4"])
            assert args.jobs == 4
            assert args.list_cells is False
            args = build_parser().parse_args([name, "--list-cells"])
            assert args.list_cells is True
            assert args.jobs == 1

    def test_smoke_takes_jobs(self):
        assert build_parser().parse_args(
            ["smoke", "--jobs", "2"]
        ).jobs == 2

    def test_jobs_is_the_only_executor_knob(self, capsys):
        parser = build_parser()
        for name in ("fig4", "fig5", "fig6", "table1", "hardening"):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--backend", "pool"])
        for name in ("serve", "worker", "status", "chaos"):
            with pytest.raises(SystemExit):
                parser.parse_args([name])


class TestListCells:
    def test_prints_plan_without_executing(self, capsys):
        # Full-scale fig5 would run for minutes; listing must be instant
        # and exit 0.
        assert main(["fig5", "--list-cells"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fig5: 22 cells (0 cached, 22 pending)" in out
        assert "spectre/attempt/9" in out
        assert "search" in out
        # Derived seeds are printed for reproducibility triage.
        assert "0x" in out

    def test_reflects_cell_cache(self, tmp_path, capsys):
        cache = ["--cell-cache", str(tmp_path)]
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger"]
                    + cache) == EXIT_OK
        capsys.readouterr()
        assert main(["fig4", "--quick", "--seed", "8", "--list-cells"]
                    + cache) == EXIT_OK
        out = capsys.readouterr().out
        assert "(4 cached, 0 pending)" in out
        # Another seed, or an armed fault spec, is another set of cells.
        assert main(["fig4", "--quick", "--seed", "9", "--list-cells"]
                    + cache) == EXIT_OK
        assert "(0 cached, 4 pending)" in capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "8", "--list-cells",
                     "--inject-faults", "hpc_garble=0.2"]
                    + cache) == EXIT_OK
        assert "(0 cached, 4 pending)" in capsys.readouterr().out

    def test_reflects_the_ledger_cell_cache(self, tmp_path, capsys):
        ledger = ["--ledger", str(tmp_path)]
        assert main(["fig4", "--quick", "--seed", "3"] + ledger) == EXIT_OK
        capsys.readouterr()
        assert main(["fig4", "--quick", "--seed", "3", "--list-cells"]
                    + ledger) == EXIT_OK
        assert "(4 cached, 0 pending)" in capsys.readouterr().out

    def test_pending_dependency_keeps_dependents_pending(self, tmp_path):
        from repro.core.experiments.fig5 import plan_fig5
        from repro.exec import (
            CellCache,
            RunContext,
            describe_plan,
            execute_plan,
        )

        knobs = dict(seed=8, attempts=1, detector_names=("lr",),
                     training_benign=40, training_attack=40,
                     attempt_samples=12, attempt_benign=6)
        context = RunContext(cell_cache=CellCache(tmp_path))
        assert "(0 cached, 4 pending)" in describe_plan(
            plan_fig5(**knobs), context)
        execute_plan(plan_fig5(**knobs), context)
        assert "(4 cached, 0 pending)" in describe_plan(
            plan_fig5(**knobs), context)
        # Drop the training entry: every cell downstream of it is
        # pending, though their own entries are still on disk.
        [training] = [path for path in tmp_path.rglob("*.json")
                      if json.loads(path.read_text())["key"] == "training"]
        training.unlink()
        assert "(0 cached, 4 pending)" in describe_plan(
            plan_fig5(**knobs), context)

    def test_respects_quick_and_seed(self, capsys):
        assert main(["fig5", "--quick", "--seed", "3",
                     "--list-cells"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fig5: 8 cells" in out  # quick = 3 attempts
        assert "root seed 3" in out


class TestJobsRun:
    def test_parallel_run_matches_serial_artefact(self, tmp_path,
                                                  capsys):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--cell-cache", str(serial_dir)]) == EXIT_OK
        serial_out = capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--jobs", "2",
                     "--cell-cache", str(parallel_dir)]) == EXIT_OK
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert _entries(parallel_dir) == _entries(serial_dir)

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--jobs", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        # Progress lines must never contaminate the report artefact.
        assert "[fig4" not in captured.out
        assert "[fig4" in captured.err
        assert "4/4" in captured.err

    def test_faulted_parallel_smoke_degrades_not_crashes(self, capsys):
        # The CI smoke line: every fault kind armed, two workers.
        exit_code = main(["smoke", "--seed", "8", "--jobs", "2",
                          "--inject-faults", "classifier_divergence=1.0",
                          "--max-fault-fires", "1"])
        captured = capsys.readouterr()
        assert exit_code in (EXIT_OK, 4)
        assert "calibration" in captured.out


class TestCacheArtefacts:
    def test_parallel_run_leaves_one_entry_per_cell(self, tmp_path,
                                                    capsys):
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--jobs", "2",
                     "--cell-cache", str(tmp_path)]) == EXIT_OK
        entries = _entries(tmp_path)
        assert sorted(entries) == [
            "host/basicmath", "host/bitcount", "host/qsort", "host/sha",
        ]
        # Entries are written atomically: no temp files left behind.
        assert [path for path in tmp_path.rglob("*")
                if path.is_file() and path.suffix != ".json"] == []


def _entries(cache_root):
    """``{cell key: stored payload}`` of every entry under a cache."""
    entries = {}
    for path in cache_root.rglob("*.json"):
        entry = json.loads(path.read_text())
        entries[entry["key"]] = entry["payload"]
    return entries
