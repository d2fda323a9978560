"""Unit tests for the run ledger (manifests, run scan, resume parity)."""

import dataclasses
import json
import os

import pytest

from repro.cli import EXIT_OK, main
from repro.core.experiments import run_fig4
from repro.exec import CellCache, RunContext, SweepPlan
from repro.obs.ledger import (
    LEDGER_FORMAT,
    build_manifest,
    file_digest,
    git_sha,
    load_manifest,
    manifest_bytes,
    read_index,
    run_id_for,
    stable_hash,
    strip_volatile,
    write_manifest,
)

#: Smoke-scale fig4 knobs: full plan topology, seconds not minutes.
TINY = dict(seed=5, hosts=("basicmath",), classifier="lr",
            benign_per_host=40, attack_per_variant=16, variants=("v1",))

TINY_CONFIG = {"experiment": "fig4", **{k: list(v) if isinstance(v, tuple)
                                        else v for k, v in TINY.items()}}


@dataclasses.dataclass
class FakeSweep:
    plan: SweepPlan
    statuses: dict
    metrics: dict


def _fake_sweep(statuses, metrics):
    plan = SweepPlan("fig4", 5)
    for key in statuses:
        plan.add(key, dict)
    return FakeSweep(plan, statuses, metrics)


@dataclasses.dataclass
class FakeResult:
    sweep: FakeSweep
    partial: bool = False

    def headlines(self):
        return {"accuracy": 0.97}

    def series(self):
        return {"accuracy_by_size": [0.5, 0.9, 0.97]}


def _fake_result():
    return FakeResult(sweep=_fake_sweep(
        statuses={"host/a": {"status": "ok"},
                  "host/b": {"status": "cached"}},
        metrics={"host/a": {"counters": {"cache.miss": 3}}},
    ))


class TestHashing:
    def test_stable_hash_is_key_order_free(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_stable_hash_differs_on_value(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_run_id_shape(self):
        run_id = run_id_for("fig4", {"seed": 0})
        assert run_id.startswith("fig4-")
        assert len(run_id) == len("fig4-") + 12
        assert run_id == run_id_for("fig4", {"seed": 0})

    def test_file_digest(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"hello")
        assert file_digest(path) == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )


class TestGitSha:
    def test_inside_repo(self):
        sha = git_sha(os.path.join(os.path.dirname(__file__), "..", ".."))
        assert sha is not None
        assert len(sha) == 40
        int(sha, 16)

    def test_outside_repo(self, tmp_path):
        assert git_sha(tmp_path) is None


class TestBuildManifest:
    def test_basic_shape(self):
        manifest = build_manifest("fig4", {"seed": 5}, _fake_result())
        assert manifest["format"] == LEDGER_FORMAT
        assert manifest["run_id"] == run_id_for("fig4", {"seed": 5})
        assert manifest["seed"] == 5
        assert manifest["config_hash"] == stable_hash({"seed": 5})
        assert manifest["headlines"] == {"accuracy": 0.97}
        assert manifest["series"]["accuracy_by_size"][-1] == 0.97
        assert manifest["partial"] is False

    def test_cached_status_normalised_to_ok(self):
        manifest = build_manifest("fig4", {"seed": 5}, _fake_result())
        statuses = {c["key"]: c["status"] for c in manifest["cells"]}
        assert statuses == {"host/a": "ok", "host/b": "ok"}

    def test_trace_paths_relative_to_root(self, tmp_path):
        sink = tmp_path / "run" / "fig4.trace.jsonl"
        sink.parent.mkdir()
        sink.write_text("x\n")
        manifest = build_manifest(
            "fig4", {"seed": 5}, _fake_result(),
            trace_files={"jsonl": str(sink)},
            trace_root=str(tmp_path / "run"),
        )
        assert manifest["traces"]["jsonl"]["path"] == "fig4.trace.jsonl"
        outside = build_manifest(
            "fig4", {"seed": 5}, _fake_result(),
            trace_files={"jsonl": str(sink)},
            trace_root=str(tmp_path / "elsewhere"),
        )
        assert outside["traces"]["jsonl"]["path"] == str(sink)

    def test_volatile_timing_stripped(self):
        manifest = build_manifest("fig4", {"seed": 5}, _fake_result(),
                                  timing={"wall_s": 12.5})
        assert manifest["timing"] == {"wall_s": 12.5}
        assert "timing" not in strip_volatile(manifest)
        other = build_manifest("fig4", {"seed": 5}, _fake_result(),
                               timing={"wall_s": 99.0})
        assert manifest_bytes(manifest) == manifest_bytes(other)

    def test_degraded_result_headlines_survive(self):
        class Broken(FakeResult):
            def headlines(self):
                raise ZeroDivisionError("no completed cells")

        manifest = build_manifest(
            "fig4", {"seed": 5},
            Broken(sweep=_fake_sweep({}, {}), partial=True),
        )
        assert manifest["headlines"] == {}
        assert manifest["partial"] is True


class TestWriteLoadIndex:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest("fig4", {"seed": 5}, _fake_result(),
                                  timing={"wall_s": 1.0})
        path = write_manifest(tmp_path, manifest)
        assert os.path.basename(path) == "manifest.json"

        by_path = load_manifest(path)
        by_dir = load_manifest(os.path.dirname(path))
        by_id = load_manifest(manifest["run_id"], ledger_dir=tmp_path)
        for loaded in (by_path, by_dir, by_id):
            assert strip_volatile(loaded) == strip_volatile(manifest)

        entries = read_index(tmp_path)
        assert len(entries) == 1
        assert entries[0]["run_id"] == manifest["run_id"]
        assert entries[0]["headlines"] == {"accuracy": 0.97}
        assert entries[0]["wall_s"] == 1.0

    def test_rewrite_replaces_index_line(self, tmp_path):
        manifest = build_manifest("fig4", {"seed": 5}, _fake_result())
        write_manifest(tmp_path, manifest)
        write_manifest(tmp_path, manifest)
        other = build_manifest("fig4", {"seed": 6}, _fake_result())
        write_manifest(tmp_path, other)
        entries = read_index(tmp_path)
        assert [e["run_id"] for e in entries] == [
            manifest["run_id"], other["run_id"]
        ]

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_manifest("nope", ledger_dir=tmp_path)

    def test_load_wrong_format_raises(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": "wrong/0"}))
        with pytest.raises(ValueError):
            load_manifest(str(path))

    def test_read_index_empty_ledger(self, tmp_path):
        assert read_index(tmp_path) == []


def _record(ledger, seed, accuracy=0.97):
    result = _fake_result()
    result.headlines = lambda: {"accuracy": accuracy}
    manifest = build_manifest("fig4", {"seed": seed}, result)
    write_manifest(ledger, manifest)
    return manifest["run_id"]


class TestIndexScan:
    """``read_index`` is a scan of ``<ledger>/*/manifest.json``."""

    def test_default_ledger_cli_run_is_one_entry(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--quick"]) == EXIT_OK
        # The cell cache lives at runs/cellcache/ but is not a run.
        assert (tmp_path / "runs" / "cellcache").is_dir()
        entries = read_index("runs")
        assert len(entries) == 1
        entry = entries[0]
        assert entry["experiment"] == "table1"
        assert entry["path"] == os.path.join(entry["run_id"],
                                             "manifest.json")
        assert set(entry) == {"run_id", "experiment", "seed",
                              "config_hash", "git_sha", "partial",
                              "headlines", "wall_s", "path"}

    def test_trace_out_dir_inside_ledger_is_skipped(self, tmp_path):
        ledger = tmp_path / "runs"
        trace_out = ledger / "traces"
        assert main(["table1", "--quick", "--trace", "--ledger",
                     str(ledger), "--trace-out", str(trace_out)]) == EXIT_OK
        assert any(trace_out.iterdir())
        assert len(read_index(ledger)) == 1

    def test_rerecorded_run_is_one_entry_with_new_headlines(self,
                                                             tmp_path):
        ledger = str(tmp_path)
        run_id = _record(ledger, seed=1)
        assert _record(ledger, seed=1, accuracy=0.5) == run_id
        entries = read_index(ledger)
        assert [e["run_id"] for e in entries] == [run_id]
        assert entries[0]["headlines"] == {"accuracy": 0.5}

    def test_ledger_root_holds_only_run_dirs(self, tmp_path):
        ledger = str(tmp_path)
        recorded = {_record(ledger, seed=1), _record(ledger, seed=2)}
        assert set(os.listdir(ledger)) == recorded
        for run_id in recorded:
            assert os.listdir(os.path.join(ledger, run_id)) == [
                "manifest.json"
            ]


class TestResumeParity:
    def test_cached_rerun_manifest_is_byte_identical(self, tmp_path):
        """The acceptance contract: a resumed (fully cached) run and a
        fresh run produce the same manifest minus wall-clock."""
        manifests = []
        for attempt in range(2):
            result = run_fig4(**TINY, context=RunContext(
                cell_cache=CellCache(tmp_path / "cc")))
            manifests.append(build_manifest(
                "fig4", TINY_CONFIG, result,
                timing={"wall_s": float(attempt)},
            ))
        statuses = [
            {c["key"]: c["status"] for c in m["cells"]}
            for m in manifests
        ]
        # Second run was served from the cell cache (and the manifest
        # normalises "cached" to "ok")...
        assert all(cell["status"] == "cached"
                   for cell in result.sweep.statuses.values())
        assert all(s == "ok" for s in statuses[1].values())
        # ...and the manifests agree byte-for-byte minus timing.
        assert manifest_bytes(manifests[0]) == manifest_bytes(manifests[1])
        assert manifests[0]["timing"] != manifests[1]["timing"]
