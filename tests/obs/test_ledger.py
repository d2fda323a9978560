"""Unit tests for the run ledger (manifests, index, resume parity)."""

import dataclasses
import json
import os

import pytest

from repro.core.experiments import run_fig4
from repro.exec import CellCache
from repro.obs.ledger import (
    LEDGER_FORMAT,
    LEDGER_INDEX,
    LEDGER_SHARDS,
    build_manifest,
    consolidate_index,
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
class FakeResult:
    cell_status: dict
    cell_metrics: dict
    partial: bool = False

    def headlines(self):
        return {"accuracy": 0.97}

    def series(self):
        return {"accuracy_by_size": [0.5, 0.9, 0.97]}


def _fake_result():
    return FakeResult(
        cell_status={"host/a": {"status": "ok"},
                     "host/b": {"status": "cached"}},
        cell_metrics={"host/a": {"counters": {"cache.miss": 3}}},
    )


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
            Broken(cell_status={}, cell_metrics={}, partial=True),
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


class TestIndexShards:
    """The shard-then-consolidate discipline behind concurrent writers."""

    def _shard_files(self, ledger):
        shard_dir = os.path.join(ledger, LEDGER_SHARDS)
        if not os.path.isdir(shard_dir):
            return []
        return [name for name in os.listdir(shard_dir)
                if name.endswith(".json")]

    def test_write_consolidates_its_own_shard(self, tmp_path):
        ledger = str(tmp_path)
        run_id = _record(ledger, seed=1)
        # The writer held the lock, so the shard was folded straight in.
        assert self._shard_files(ledger) == []
        assert [e["run_id"] for e in read_index(ledger)] == [run_id]

    def test_unconsolidated_shard_is_still_visible(self, tmp_path):
        ledger = str(tmp_path)
        lock = tmp_path / (LEDGER_INDEX + ".lock")
        lock.touch()                    # a rival holds the lock
        run_id = _record(ledger, seed=1)
        assert self._shard_files(ledger) == [f"{run_id}.json"]
        # Merge-on-read: the entry is visible without the monolith.
        assert [e["run_id"] for e in read_index(ledger)] == [run_id]

        lock.unlink()
        assert consolidate_index(ledger)
        assert self._shard_files(ledger) == []
        assert [e["run_id"] for e in read_index(ledger)] == [run_id]

    def test_shard_supersedes_monolith_in_place(self, tmp_path):
        ledger = str(tmp_path)
        first = _record(ledger, seed=1)
        second = _record(ledger, seed=2)
        lock = tmp_path / (LEDGER_INDEX + ".lock")
        lock.touch()
        assert _record(ledger, seed=1, accuracy=0.5) == first
        third = _record(ledger, seed=3)
        entries = read_index(ledger)
        # Order: monolith order with the re-recorded run replaced in
        # place, then the genuinely new run.
        assert [e["run_id"] for e in entries] == [first, second, third]
        assert entries[0]["headlines"] == {"accuracy": 0.5}
        lock.unlink()

    def test_stale_lock_is_broken(self, tmp_path):
        ledger = str(tmp_path)
        lock = tmp_path / (LEDGER_INDEX + ".lock")
        lock.touch()
        ancient = os.path.getmtime(lock) - 3600.0
        os.utime(lock, (ancient, ancient))
        run_id = _record(ledger, seed=4)
        # The dead rival's lock did not wedge consolidation forever.
        assert self._shard_files(ledger) == []
        assert [e["run_id"] for e in read_index(ledger)] == [run_id]

    def test_concurrent_recorders_lose_nothing(self, tmp_path):
        """The race the shards exist for: N writers, one ledger, no
        read-modify-write, every entry survives."""
        import threading

        ledger = str(tmp_path)
        start = threading.Barrier(8)
        recorded = []

        def record(seed):
            start.wait()
            recorded.append(_record(ledger, seed=seed))

        threads = [threading.Thread(target=record, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        entries = read_index(ledger)
        assert sorted(e["run_id"] for e in entries) == sorted(recorded)
        assert len(entries) == 8
        # A final consolidation folds any shards the racers left.
        assert consolidate_index(ledger)
        assert self._shard_files(ledger) == []
        assert len(read_index(ledger)) == 8


class TestResumeParity:
    def test_cached_rerun_manifest_is_byte_identical(self, tmp_path):
        """The acceptance contract: a resumed (fully cached) run and a
        fresh run produce the same manifest minus wall-clock."""
        manifests = []
        for attempt in range(2):
            statuses = {}
            result = run_fig4(cell_cache=CellCache(tmp_path / "cc"),
                              **TINY)
            manifests.append(build_manifest(
                "fig4", TINY_CONFIG, result,
                statuses=result.cell_status,
                timing={"wall_s": float(attempt)},
            ))
        statuses = [
            {c["key"]: c["status"] for c in m["cells"]}
            for m in manifests
        ]
        # Second run was served from the cell cache (and the manifest
        # normalises "cached" to "ok")...
        assert all(cell["status"] == "cached"
                   for cell in result.cell_status.values())
        assert all(s == "ok" for s in statuses[1].values())
        # ...and the manifests agree byte-for-byte minus timing.
        assert manifest_bytes(manifests[0]) == manifest_bytes(manifests[1])
        assert manifests[0]["timing"] != manifests[1]["timing"]
