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

    def test_reflects_checkpoint_cache(self, tmp_path, capsys):
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--resume", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["fig4", "--quick", "--seed", "8", "--list-cells",
                     "--resume", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(4 cached, 0 pending)" in out

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
                     "--resume", str(serial_dir)]) == EXIT_OK
        serial_out = capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--jobs", "2",
                     "--resume", str(parallel_dir)]) == EXIT_OK
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert (parallel_dir / "fig4.json").read_bytes() == \
            (serial_dir / "fig4.json").read_bytes()

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


class TestShardCleanup:
    def test_parallel_checkpoint_leaves_single_artefact(self, tmp_path,
                                                        capsys):
        assert main(["fig4", "--quick", "--seed", "8", "--no-ledger",
                     "--jobs", "2",
                     "--resume", str(tmp_path)]) == EXIT_OK
        assert not (tmp_path / "fig4.json.d").exists()
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert set(payload["cells"]) == {
            "host/basicmath", "host/bitcount", "host/sha", "host/qsort",
        }
