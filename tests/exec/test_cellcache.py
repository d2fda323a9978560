"""Cell memoization: content-addressed hits, misses, and poison handling.

The cache's safety argument has two legs — the *key* digest (any change
to experiment, cell identity, seed, resolved kwargs, trace config or
fault spec produces a different key) and the *value* digest (a stored entry is
re-verified on every read, so corruption is detected and recomputed,
never trusted).  Both are pinned here, including end-to-end through
:func:`execute_plan`.
"""

import json
import os

import pytest

from repro.core.resilience import FaultInjector
from repro.exec import CellCache, RunContext, SweepPlan, execute_plan

from tests.exec.cells import fault_probe, seeded_value, summed


def _plan():
    plan = SweepPlan("toy", root_seed=7)
    plan.add("a", seeded_value, kwargs={"tag": "a"})
    plan.add("b", summed, kwargs={"factor": 2}, deps={"values": "a"})
    return plan


def _entry_files(cache):
    found = []
    for root, _dirs, files in os.walk(cache.root):
        found.extend(os.path.join(root, name) for name in files)
    return found


class TestDigest:
    def test_stable_for_identical_material(self, tmp_path):
        cache = CellCache(tmp_path)
        args = ("toy", "a", 123, seeded_value, {"tag": "a"})
        assert cache.digest(*args) == cache.digest(*args)

    @pytest.mark.parametrize("mutation", [
        {"experiment": "toy2"},
        {"key": "a2"},
        {"seed": 124},
        {"fn": summed},
        {"kwargs": {"tag": "b"}},
        {"faults": FaultInjector(rates={"hpc_drop": 0.1})},
    ])
    def test_any_identity_change_changes_digest(self, tmp_path, mutation):
        cache = CellCache(tmp_path)
        base = dict(experiment="toy", key="a", seed=123,
                    fn=seeded_value, kwargs={"tag": "a"})
        baseline = cache.digest(**base)
        assert cache.digest(**{**base, **mutation}) != baseline

    def test_unserialisable_kwargs_are_uncacheable(self, tmp_path):
        cache = CellCache(tmp_path)
        digest = cache.digest("toy", "a", 1, seeded_value,
                              {"scenario": object()})
        assert digest is None
        assert cache.lookup(digest) is None
        cache.store(digest, "toy", "a", {"x": 1})  # silently skipped
        assert not _entry_files(cache)


class TestRoundTrip:
    def test_store_then_lookup(self, tmp_path):
        cache = CellCache(tmp_path)
        digest = cache.digest("toy", "a", 1, seeded_value, {"tag": "a"})
        assert cache.lookup(digest) is None  # cold
        cache.store(digest, "toy", "a", {"x": 1}, trace=[{"e": 1}],
                    metrics={"m": 2})
        assert cache.lookup(digest) == \
            {"value": {"x": 1}, "trace": [{"e": 1}], "metrics": {"m": 2}}
        assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1,
                                 "poisoned": 0}

    def test_poisoned_entry_detected_and_discarded(self, tmp_path):
        cache = CellCache(tmp_path)
        digest = cache.digest("toy", "a", 1, seeded_value, {"tag": "a"})
        cache.store(digest, "toy", "a", {"x": 1})
        [path] = _entry_files(cache)
        entry = json.load(open(path))
        entry["payload"]["value"] = {"x": 999}  # tamper with the value
        with open(path, "w") as handle:
            json.dump(entry, handle)

        assert cache.lookup(digest) is None
        assert cache.poisoned == 1
        # The poisoned file is left in place: healing is write-only
        # (an unlink could destroy a rival healer's fresh entry), so
        # the entry is replaced by the recompute's store(), not here.
        assert os.path.exists(path)
        cache.store(digest, "toy", "a", {"x": 1})
        assert cache.lookup(digest) == {"value": {"x": 1}}


class TestExecutePlanMemoization:
    def test_second_run_is_all_hits_with_identical_results(self, tmp_path):
        cache = CellCache(tmp_path / "cc")
        cold_sweep = execute_plan(_plan(), RunContext(cell_cache=cache))
        cold, cold_status = cold_sweep.values, cold_sweep.statuses
        assert cache.stats() == {"hits": 0, "misses": 2, "puts": 2,
                                 "poisoned": 0}

        warm_cache = CellCache(tmp_path / "cc")
        warm_sweep = execute_plan(_plan(),
                                  RunContext(cell_cache=warm_cache))
        warm, warm_status = warm_sweep.values, warm_sweep.statuses
        assert warm == cold
        assert warm_cache.stats() == {"hits": 2, "misses": 0, "puts": 0,
                                      "poisoned": 0}
        assert {k: v["status"] for k, v in warm_status.items()} == \
            {"a": "cached", "b": "cached"}
        assert {k: v["status"] for k, v in cold_status.items()} == \
            {"a": "ok", "b": "ok"}

    def test_poisoned_cell_recomputed_end_to_end(self, tmp_path):
        cache = CellCache(tmp_path / "cc")
        cold = _run(_plan(), cache)

        # Poison every stored entry the way bit rot / tampering would:
        # valid JSON, wrong payload for the recorded value digest.
        for path in _entry_files(cache):
            entry = json.load(open(path))
            entry["payload"]["value"] = "poison"
            with open(path, "w") as handle:
                json.dump(entry, handle)

        warm_cache = CellCache(tmp_path / "cc")
        warm = _run(_plan(), warm_cache)
        assert warm == cold  # recomputed, not trusted
        assert warm_cache.poisoned == 2
        assert warm_cache.hits == 0
        assert warm_cache.puts == 2  # healthy entries written back

        # And the heal sticks: the next run is clean hits.
        healed = CellCache(tmp_path / "cc")
        assert _run(_plan(), healed) == cold
        assert healed.stats() == {"hits": 2, "misses": 0, "puts": 0,
                                  "poisoned": 0}

    def test_concurrent_healers_converge(self, tmp_path):
        """N threads all detect the same poisoned entry and heal it.

        The race this pins: with unlink-on-detect, a slow healer's
        delete could land *after* a fast healer's store and destroy
        the healed entry.  With write-only healing every racer funnels
        through store()'s unique-temp + rename, so whatever the
        interleaving, the entry ends valid.
        """
        import threading

        cache = CellCache(tmp_path)
        digest = cache.digest("toy", "a", 1, seeded_value, {"tag": "a"})
        cache.store(digest, "toy", "a", {"x": 1})
        [path] = _entry_files(cache)
        entry = json.load(open(path))
        entry["payload"]["value"] = "poison"
        with open(path, "w") as handle:
            json.dump(entry, handle)

        start = threading.Barrier(8)
        outcomes = []

        def heal(index):
            healer = CellCache(tmp_path)
            start.wait()
            for _ in range(20):
                if healer.lookup(digest) is None:
                    # Recompute (deterministic) and write the heal.
                    healer.store(digest, "toy", "a", {"x": 1})
            outcomes.append(healer.stats())

        threads = [threading.Thread(target=heal, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(outcomes) == 8
        assert CellCache(tmp_path).lookup(digest) == {"value": {"x": 1}}
        [final] = _entry_files(cache)
        assert final == path
        # Nobody can have read the poisoned payload as a hit value.
        total_hits = sum(stats["hits"] for stats in outcomes)
        total_poisoned = sum(stats["poisoned"] for stats in outcomes)
        assert total_poisoned >= 1
        assert total_hits + total_poisoned + \
            sum(stats["misses"] for stats in outcomes) == 8 * 20

    def test_armed_cells_are_keyed_by_the_fault_spec(self, tmp_path):
        """An unarmed entry is never a hit for an armed cell; two armed
        runs with the same spec are."""
        root = tmp_path / "cc"
        _run(_armed_plan(None), CellCache(root))

        first = CellCache(root)
        cold = _run(_armed_plan(_injector()), first)
        assert first.hits == 0  # the unarmed entry was not replayed
        assert first.puts == 1

        second = CellCache(root)
        warm = _run(_armed_plan(_injector()), second)
        assert second.stats() == {"hits": 1, "misses": 0, "puts": 0,
                                  "poisoned": 0}
        assert warm == cold

        other = CellCache(root)
        _run(_armed_plan(_injector(max_fires=0)), other)
        assert other.hits == 0  # a different cap is a different spec

    def test_fired_counts_replay_into_the_root_injector(self, tmp_path):
        cold = _injector()
        _run(_armed_plan(cold), CellCache(tmp_path))
        assert cold.summary() == {"hpc_garble": 1}

        warm = _injector()
        cache = CellCache(tmp_path)
        _run(_armed_plan(warm), cache)
        assert cache.hits == 1
        assert warm.summary() == cold.summary()


def _run(plan, cache):
    return execute_plan(plan, RunContext(cell_cache=cache)).values


def _injector(max_fires=None):
    return FaultInjector(seed=3, rates={"hpc_garble": 1.0},
                         max_fires=max_fires)


def _armed_plan(faults):
    plan = SweepPlan("toy", root_seed=7, faults=faults)
    plan.add("probe", fault_probe, kwargs={"kind": "hpc_garble"},
             seed_kw="cell_seed", faults_kw="faults")
    return plan
