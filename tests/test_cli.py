"""CLI tests (fast paths only; the experiment commands are bench-scale)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.variant == "v1"
        assert args.delay == 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--variant", "v9"])

    def test_every_command_parses(self):
        for argv in (["attack"], ["gadgets"], ["disasm"], ["workloads"],
                     ["fig4"], ["fig5"], ["fig6"], ["table1"],
                     ["profile"]):
            assert build_parser().parse_args(argv).command == argv[0]


class TestCommands:
    def test_workloads_lists(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "basicmath" in out
        assert "browser" in out

    def test_gadgets(self, capsys):
        assert main(["gadgets", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "ret" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "--workload", "bitcount"]) == 0
        out = capsys.readouterr().out
        assert "workload" not in out  # raw listing, no symbols
        assert "0x00400000" in out

    def test_profile_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "t.csv"
        assert main(["profile", "--workload", "bitcount",
                     "--samples", "4", "--output", str(output)]) == 0
        header = output.read_text().splitlines()[0]
        assert header.startswith("process_name,label,instructions")
        assert len(output.read_text().splitlines()) == 5

    def test_attack_end_to_end(self, capsys):
        assert main(["attack", "--variant", "rsb",
                     "--secret", "short"]) == 0
        out = capsys.readouterr().out
        assert "5/5 bytes correct" in out


class TestQuickExperiments:
    def test_quick_flag_parses(self):
        args = build_parser().parse_args(["fig5", "--quick"])
        assert args.quick is True

    def test_fig4_quick_runs(self, capsys):
        assert main(["fig4", "--quick", "--seed", "3",
                     "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out


class TestUarchFlag:
    def test_defaults_to_inorder(self):
        for command in ("fig4", "fig5", "fig6", "table1", "hardening",
                        "smoke"):
            assert build_parser().parse_args([command]).uarch == "inorder"

    def test_ooo_accepted(self):
        args = build_parser().parse_args(["fig5", "--quick",
                                          "--uarch", "ooo"])
        assert args.uarch == "ooo"

    def test_unknown_uarch_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["fig5", "--uarch", "tomasulo9000"])
        assert info.value.code == 2


class TestExitCodes:
    """The documented contract: 0 ok, 1 fatal, 2 usage, 3 budget, 4 partial."""

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as info:
            main(["fig4", "--inject-faults", "gremlins=1.0"])
        assert info.value.code == 2

    def test_bad_fault_rate_is_2(self):
        with pytest.raises(SystemExit) as info:
            main(["fig4", "--inject-faults", "hpc_drop=lots"])
        assert info.value.code == 2

    def test_budget_exceeded_is_3(self, capsys):
        assert main(["attack", "--secret", "short",
                     "--budget", "5000"]) == 3
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "consumed" in err

    def test_partial_results_are_4(self, capsys):
        assert main(["smoke", "--seed", "3", "--inject-faults",
                     "classifier_divergence=1.0"]) == 4
        out = capsys.readouterr().out
        assert "WARNING: partial results" in out
        assert "classifier_divergence" in out

    def test_smoke_defaults_recover_to_0(self, capsys):
        assert main(["smoke"]) == 0
        out = capsys.readouterr().out
        assert "calibration: threshold=" in out
        assert "Fig. 4" in out


class TestResilienceFlags:
    def test_fault_flags_parse(self):
        args = build_parser().parse_args([
            "fig6", "--inject-faults", "hpc_drop=0.1",
            "--inject-faults", "hpc_garble=0.2", "--max-fault-fires", "3",
        ])
        assert dict(args.inject_faults) == \
            {"hpc_drop": 0.1, "hpc_garble": 0.2}
        assert args.max_fault_fires == 3

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        argv = ["fig4", "--quick", "--seed", "3", "--no-ledger",
                "--cell-cache", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Served from the cell cache, rendering the identical report —
        # a replayed cell is unremarkable, not a status-section entry.
        assert second == first
        assert main(argv + ["--list-cells"]) == 0
        assert "(4 cached, 0 pending)" in capsys.readouterr().out

    def test_unarmed_cells_never_replay_into_an_armed_run(self, tmp_path,
                                                          capsys):
        argv = ["fig4", "--quick", "--seed", "3", "--no-ledger"]
        armed = ["--inject-faults", "hpc_drop=1.0"]
        cache = ["--cell-cache", str(tmp_path)]
        assert main(argv + cache) == 0
        capsys.readouterr()
        assert main(argv + cache + armed) == 4
        replayed = capsys.readouterr().out
        assert main(argv + armed) == 4
        assert replayed == capsys.readouterr().out
        assert "SampleCorruptionError" in replayed

    def test_same_seed_same_report(self, capsys):
        argv = ["fig4", "--quick", "--seed", "3", "--no-ledger",
                "--inject-faults", "hpc_garble=0.2"]
        assert main(argv) in (0, 4)
        first = capsys.readouterr().out
        assert main(argv) in (0, 4)
        assert first == capsys.readouterr().out


class TestKillAndResume:
    """^C a quick fig4 after two of its four hosts, then re-run it: the
    stdout is byte-identical to an uninterrupted run's."""

    @pytest.mark.parametrize("extra", [
        [],
        ["--uarch", "ooo"],
        ["--inject-faults", "hpc_garble=0.2"],
    ], ids=["inorder", "ooo", "hpc_garble"])
    def test_resumed_stdout_matches_uninterrupted(self, tmp_path, capsys,
                                                  monkeypatch, extra):
        from repro.core.experiments import fig4

        from tests.exec.cells import interrupt_after

        argv = ["fig4", "--quick", "--seed", "3", "--no-ledger"] + extra
        code = main(argv)
        uninterrupted = capsys.readouterr().out

        cache = ["--cell-cache", str(tmp_path)]
        real_host_cell = fig4._host_cell
        monkeypatch.setattr(fig4, "_host_cell",
                            interrupt_after(real_host_cell, 2))
        with pytest.raises(KeyboardInterrupt):
            main(argv + cache)
        monkeypatch.setattr(fig4, "_host_cell", real_host_cell)
        capsys.readouterr()

        assert main(argv + cache + ["--list-cells"]) == 0
        assert "(2 cached, 2 pending)" in capsys.readouterr().out
        assert main(argv + cache) == code
        resumed = capsys.readouterr().out
        assert resumed == uninterrupted
        if "--inject-faults" in extra:
            # The fault summary counts the replayed hosts' faults too.
            assert resumed.splitlines()[-1] == "{'hpc_garble': 60}"
