"""The benign-profile memo: identical fresh profiles are simulated once
per executor scope and replayed after that, with results, samples and
the noise RNG exactly as if every profile had been simulated."""

import contextlib

import pytest

from repro.core.experiments.fig4 import _host_cell
from repro.core.resilience import FaultInjector
from repro.core.scenario import Scenario, ScenarioConfig
from repro.exec import RunContext, SerialBackend, SweepPlan, execute_plan
from repro.exec.pool import invoke_batch
from repro.hid.memo import memo_scope
from repro.hid.profiler import Profiler, active_profile_memo
from repro.kernel import System, build_binary
from repro.obs.prof import Profiler as CycleProfiler
from repro.obs.prof import ProfileConfig, activate_profile
from repro.obs.tracer import TraceConfig, Tracer, activate
from repro.workloads import get_workload


class _NeverHit(dict):
    """Memo entries that store everything and return nothing."""

    def get(self, key, default=None):
        return default


def _windows(samples):
    return [(s.process_name, s.label, s.events) for s in samples]


@pytest.fixture
def recorded(monkeypatch):
    """Every list of samples ``Profiler.profile`` returns, in order."""
    calls = []
    original = Profiler.profile

    def spy(self, *args, **kwargs):
        samples = original(self, *args, **kwargs)
        calls.append(_windows(samples))
        return samples

    monkeypatch.setattr(Profiler, "profile", spy)
    return calls


@pytest.mark.parametrize("uarch", ["inorder", "ooo"])
def test_replayed_cells_equal_simulated_ones(recorded, uarch):
    """Two fig4 host cells: the browser and editor profiles of the
    second replay, and results and samples equal an always-miss run."""
    runs = []
    for never_hit in (False, True):
        recorded.clear()
        with memo_scope() as memos:
            memo = memos.profiles
            if never_hit:
                memo.entries = _NeverHit()
            results = [
                _host_cell(host, [4, 1], "lr", benign_per_host=24,
                           attack_per_variant=6, variants=["v1"],
                           cell_seed=seed, uarch=uarch)
                for host, seed in (("sha", 11), ("qsort", 12))
            ]
        runs.append((results, list(recorded), memo.counts()))
    (results, samples, counts), (ref_results, ref_samples, _) = runs
    assert results == ref_results
    assert samples == ref_samples
    # host + browser + editor miss in the first cell; only the second
    # host misses in the second.  Attack profiles are never keyed.
    assert counts == {"hits": 2, "misses": 4, "stored": 4}


def _browser(system, path="/bin/browser"):
    system.install_binary(path, get_workload("browser").build(
        iterations=1 << 28))
    return system.spawn(path)


def test_replay_leaves_the_noise_rng_where_profiling_does():
    system = System(seed=5, uarch="ooo")
    simulated, replayed = (Profiler(noise=0.05, seed=9) for _ in range(2))
    key = ("browser", 4)
    with memo_scope() as memos:
        memo = memos.profiles
        first = simulated.profile(_browser(system), 4, memo_key=key)
        process = _browser(system)
        second = replayed.profile(process, 4, memo_key=key)
    assert memo.counts() == {"hits": 1, "misses": 1, "stored": 1}
    assert _windows(first) == _windows(second)
    assert process.pmu.read()["instructions"] == 0   # never stepped
    assert simulated._rng.random() == replayed._rng.random()


@pytest.mark.parametrize("source", [
    """
    main:
        call libc_getpid
        jmp  main
    """,
    """
    main:
        la   a0, path
        li   a1, 0
        call libc_execve
    .data
    path: .asciiz "/bin/spin"
    """,
], ids=["getpid", "execve"])
def test_pid_readers_and_execve_are_never_stored(source):
    system = System(seed=3)
    system.install_binary("/bin/caller", build_binary("caller", source))
    system.install_binary("/bin/spin", build_binary("spin", """
    main:
        addi t0, t0, 1
        jmp  main
    """))
    profiler = Profiler(quantum=500)
    with memo_scope() as memos:
        memo = memos.profiles
        for _ in range(2):
            samples = profiler.profile(system.spawn("/bin/caller"), 3,
                                       memo_key="caller")
            assert len(samples) == 3
    assert memo.counts() == {"hits": 0, "misses": 2, "stored": 0}


def _scenario(**kwargs):
    return Scenario(ScenarioConfig(host="sha", seed=2, uarch="ooo"),
                    **kwargs)


@pytest.mark.parametrize("observer", ["faults", "tracer", "cycle_profiler"])
def test_observed_runs_bypass_the_memo(observer):
    faults = None
    context = contextlib.nullcontext()
    if observer == "faults":
        faults = FaultInjector(seed=1, rates={"hpc_garble": 0.0})
    elif observer == "tracer":
        context = activate(Tracer(TraceConfig(categories=())))
    else:
        context = activate_profile(CycleProfiler(ProfileConfig()))
    with memo_scope() as memos, context:
        memo = memos.profiles
        scenario = _scenario(faults=faults)
        for _ in range(2):
            scenario.benign_samples(6)
    assert memo.counts() == {"hits": 0, "misses": 0, "stored": 0}
    assert not memo.entries


def test_unkeyed_machines_bypass_the_memo():
    scenario = _scenario()
    process = scenario.system.spawn(scenario.host_path)
    key = scenario._profile_key(process, scenario.host_path, 4)
    assert key is not None
    assert key == scenario._profile_key(
        scenario.system.spawn(scenario.host_path), scenario.host_path, 4)
    process.cpu.watchdog = object()
    assert scenario._profile_key(process, scenario.host_path, 4) is None
    process.cpu.watchdog = None
    scenario.system.aslr = True
    assert scenario._profile_key(process, scenario.host_path, 4) is None
    shared = _scenario()
    shared.system.shared_l2 = object()
    assert shared._profile_key(process, shared.host_path, 4) is None


def _memo_probe(tag, cell_seed=0):
    """Report the active memo's keys, then add *tag* to them."""
    memo = active_profile_memo()
    seen = sorted(memo.entries)
    memo.entries[tag] = []
    return seen


def test_each_execute_plan_starts_with_an_empty_memo():
    plan = SweepPlan("memo", 0)
    plan.add("a", _memo_probe, kwargs={"tag": "a"}, seed_kw="cell_seed")
    plan.add("b", _memo_probe, kwargs={"tag": "b"}, seed_kw="cell_seed")
    for _ in range(2):
        sweep = execute_plan(plan, RunContext(backend=SerialBackend()))
        assert sweep.values == {"a": [], "b": ["a"]}
        assert sweep.profile_memo == {"hits": 0, "misses": 0, "stored": 0}
        assert active_profile_memo() is None
    # A pool worker batch of a new plan token starts empty the same way.
    batch = [(key, _memo_probe, {"tag": key}, None, None)
             for key in ("a", "b")]
    for scope in ("first plan", "second plan"):
        outcomes = dict(invoke_batch(batch, scope))
        assert [outcomes[key]["value"] for key in ("a", "b")] == [[], ["a"]]
        # No keyed profile ran, so no counts travel back.
        assert "profile_memo" not in outcomes["b"]


def test_pool_workers_keep_their_memos_for_one_plan(tmp_path, capsys):
    """At ``--jobs 2`` quick fig4's four host cells travel as one-cell
    batches; each worker keeps its memos across the plan's batches, so
    the browser and editor profiles it simulated replay, and the pool's
    manifest compares clean against the serial one."""
    import json

    from repro.cli import main

    argv = ["fig4", "--quick", "--uarch", "ooo", "--no-cell-cache"]
    assert main(argv + ["--ledger", str(tmp_path / "serial")]) == 0
    assert main(argv + ["--jobs", "2",
                        "--ledger", str(tmp_path / "pool")]) == 0
    runs = [next((tmp_path / side).glob("fig4-*"))
            for side in ("serial", "pool")]
    capsys.readouterr()
    assert main(["compare", str(runs[0]), str(runs[1])]) == 0
    timing = json.loads((runs[1] / "manifest.json").read_text())["timing"]
    assert timing["profile_memo"]["misses"] <= 8
    assert timing["profile_memo"]["hits"] >= 4
    # Every fit of fig4 is distinct: all misses, wherever they ran.
    assert timing["fit_memo"] == {"hits": 0, "misses": 20, "stored": 20}


def test_a_new_plan_token_drops_the_workers_memos():
    batch = [("a", _memo_probe, {"tag": "a"}, None, None)]
    assert invoke_batch(batch, scope=1)[0][1]["value"] == []
    again = [("b", _memo_probe, {"tag": "b"}, None, None)]
    assert invoke_batch(again, scope=1)[0][1]["value"] == ["a"]
    assert invoke_batch(batch, scope=2)[0][1]["value"] == []
