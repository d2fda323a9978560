"""CLI tests for ``repro hotspots`` and the ``--hotspots`` flag.

These tests exercise the command surface — argument validation, output
modes, and the ledger integration of ``--hotspots`` — against small
workloads.
"""

import json

from repro.cli import EXIT_OK, EXIT_USAGE, main


class TestHotspotsCommand:
    def test_tables_mode(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--top", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hotspots:" in out
        assert "subsystem" in out
        assert "opcode" in out
        assert "basic block" in out

    def test_collapsed_mode(self, capsys):
        assert main(["hotspots", "--workload", "bitcount",
                     "--iterations", "40", "--collapsed",
                     "--by", "opcode"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            frame, count = line.rsplit(" ", 1)
            assert frame.startswith("bitcount;")
            assert int(count) > 0

    def test_json_mode(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--json"]) == EXIT_OK
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["instructions"] > 0
        assert snapshot["subsystems"]

    def test_bad_filter_is_usage_error(self, capsys):
        assert main(["hotspots", "--filter", "bogus"]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_ooo_uarch(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--uarch", "ooo"]) == EXIT_OK
        assert "hotspots:" in capsys.readouterr().out


class TestExperimentHotspotsFlag:
    def test_profiled_fig4_records_manifest_profile(self, tmp_path,
                                                    capsys):
        ledger = tmp_path / "runs"
        assert main(["fig4", "--quick", "--hotspots",
                     "--ledger", str(ledger)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "hotspots:" in captured.out
        manifest_path = next(ledger.glob("fig4-*/manifest.json"))
        manifest = json.loads(manifest_path.read_text())
        profile = manifest["profile"]
        assert profile["instructions"] > 0
        assert profile["subsystems"]["execute"]["cycles"] > 0
        assert "wall" not in profile            # volatile, stripped
        phases = manifest["timing"]["phases"]
        assert set(phases) == {"schedule", "cache_lookup", "compute",
                               "ipc", "merge"}

