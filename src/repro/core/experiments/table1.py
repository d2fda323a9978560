"""Table I: IPC overhead of co-located CR-Spectre on MiBench hosts.

For each benchmark row the host runs to completion three times on a
machine with a shared L2 and context-switch costs:

* alone ("Original Application"),
* co-scheduled with an injected CR-Spectre of the *offline* kind (one
  fixed, moderate perturbation variant),
* co-scheduled with the *online* kind (dynamic, burst-heavier
  perturbation — the extra Algorithm-2 work is why the paper reports
  1.1 % online vs 0.6 % offline).

The overhead is the host's IPC drop; the paper's headline is that it is
negligible (<~1 %).

Each benchmark row is one cell of the declared
:class:`~repro.exec.SweepPlan` — rows build their own simulated
:class:`~repro.kernel.system.System` instances, so they are mutually
independent and fan out cleanly over a process pool (``--jobs N``).
"""

import dataclasses

from repro.attack import (
    PerturbParams,
    SpectreConfig,
    build_spectre,
    plan_execve_injection,
)
from repro.core.experiments.common import SweepResult, co_run
from repro.core.reporting import format_table
from repro.core.resilience import Watchdog
from repro.core.scenario import PROFILE_REPEATS
from repro.errors import BudgetExceededError
from repro.exec import SweepPlan, execute_plan
from repro.kernel.system import System
from repro.workloads import get_workload

#: Paper Table I rows: label -> (workload, iterations).  The paper's
#: "50M/100M operations" and SHA input sizes map onto iteration counts
#: (scaled ~1000x down; see EXPERIMENTS.md).
TABLE1_ROWS = (
    ("Math", "basicmath", (400, 800)),      # small + large, averaged
    ("Bitcount 50M", "bitcount", (1500,)),
    ("Bitcount 100M", "bitcount", (3000,)),
    ("SHA 1", "sha", (25,)),
    ("SHA 2", "sha", (50,)),
)

#: Offline-type CR-Spectre: the one fixed variant.
OFFLINE_PERTURB = PerturbParams(delay=1000, calls_per_byte=2)
#: Online-type CR-Spectre: dynamic, burst-heavier (more Algorithm-2 work).
ONLINE_PERTURB = PerturbParams(delay=400, calls_per_byte=4, loop_count=20,
                               extra_loops=3)


@dataclasses.dataclass
class Table1Row:
    benchmark: str
    original_ipc: float
    offline_ipc: float
    online_ipc: float

    @property
    def offline_overhead(self):
        return 1.0 - self.offline_ipc / self.original_ipc

    @property
    def online_overhead(self):
        return 1.0 - self.online_ipc / self.original_ipc


@dataclasses.dataclass
class Table1Result(SweepResult):
    rows: list

    def format(self):
        headers = ["Benchmark", "Original (IPC)",
                   "CR-Spectre offline (IPC)", "CR-Spectre online (IPC)",
                   "ovh off", "ovh on"]
        body = [
            [row.benchmark,
             f"{row.original_ipc:.4f}",
             f"{row.offline_ipc:.4f}",
             f"{row.online_ipc:.4f}",
             f"{100 * row.offline_overhead:.2f}%",
             f"{100 * row.online_overhead:.2f}%"]
            for row in self.rows
        ]
        text = format_table(
            headers, body,
            title="Table I — performance overhead in evaluated benchmarks",
        )
        return self.sweep.report(text)

    def average_overheads(self):
        offline = sum(r.offline_overhead for r in self.rows) / len(self.rows)
        online = sum(r.online_overhead for r in self.rows) / len(self.rows)
        return offline, online

    def headlines(self):
        """Ledger headlines: the paper's 0.6 % / 1.1 % IPC overheads."""
        if not self.rows:
            return {}
        offline, online = self.average_overheads()
        return {
            "offline_ipc_overhead": offline,
            "online_ipc_overhead": online,
            "max_ipc_overhead": max(
                max(r.offline_overhead, r.online_overhead)
                for r in self.rows
            ),
        }

    def series(self):
        """Per-row overhead series, in table order."""
        if not self.rows:
            return {}
        return {
            "offline_overhead_by_row": [
                r.offline_overhead for r in self.rows
            ],
            "online_overhead_by_row": [
                r.online_overhead for r in self.rows
            ],
        }


def _inject_attack(system, host_program, host_path, secret, perturb, tag):
    """Spawn a host instance and ROP-inject a CR-Spectre variant into it."""
    attack_program = build_spectre("v1", SpectreConfig(
        secret_length=len(secret),
        repeats=PROFILE_REPEATS,
        perturb=perturb,
    ))
    path = f"/bin/.cr_{tag}"
    system.install_binary(path, attack_program)
    plan = plan_execve_injection(host_program, host_path, path)
    return system.spawn(host_path, argv=plan.argv)


def _measure_host_ipc(seed, workload_name, iterations, secret,
                      perturb=None, dynamic=False, quantum=10_000,
                      rotate_quanta=40, watchdog=None, uarch="inorder"):
    """Host IPC to completion, optionally next to an injected attack.

    ``dynamic=True`` models the *online-type* CR-Spectre campaign: the
    attack is periodically torn down and re-injected with mutated
    Algorithm-2 parameters (the paper's variant regeneration), which is
    what costs slightly more than the offline single-variant execution.
    A *watchdog* bounds the whole measurement: a host that never
    completes (runaway injection) raises
    :class:`~repro.errors.BudgetExceededError` instead of re-entering
    the rotation loop forever.
    """
    import random

    from repro.attack.perturb import mutate

    system = System(seed=seed, target_data=secret, shared_l2=True,
                    uarch=uarch)
    workload = get_workload(workload_name)
    host_program = workload.build(iterations=iterations, hosted=True)
    host_path = f"/bin/{workload_name}"
    system.install_binary(host_path, host_program)

    host = system.spawn(host_path)

    if perturb is None:
        co_run([host], quantum=quantum, until=lambda: not host.alive,
               watchdog=watchdog)
        return host.pmu.ipc

    # The HID itself runs on the machine: the offline type only samples
    # HPCs (light daemon), the online type also retrains on its trace
    # matrix (heavy, L2-streaming daemon) — the source of the paper's
    # higher online overhead.
    daemon_workload = get_workload(
        "hid_daemon_heavy" if dynamic else "hid_daemon_light"
    )
    system.install_binary(
        "/bin/.hidd", daemon_workload.build(iterations=1 << 28)
    )
    daemon = system.spawn("/bin/.hidd")

    rng = random.Random(seed + 7)
    params = perturb
    injected = _inject_attack(
        system, host_program, host_path, secret, params, tag=0
    )
    rotations = 0
    while host.alive:
        window = rotate_quanta if dynamic else 1_000_000
        co_run([host, injected, daemon], quantum=quantum,
               until=lambda: not host.alive, max_quanta=window,
               watchdog=watchdog)
        if dynamic and host.alive:
            # Variant regeneration: fresh injection, mutated parameters.
            injected.cpu.state.halted = True
            rotations += 1
            params = mutate(params, rng, aggressiveness=1.0)
            injected = _inject_attack(
                system, host_program, host_path, secret, params,
                tag=rotations,
            )
    return host.pmu.ipc


def _row_cell(label, workload_name, iteration_choices, root_seed, secret,
              repetitions, quantum, measurement_budget, cell_seed=0,
              faults=None, uarch="inorder"):
    """One benchmark row: original/offline/online IPC, averaged.

    The System seeds derive from the *root* seed (``seed + 1000 * rep``,
    as the serial sweep always did) so the measured IPCs are a function
    of the row alone — the cell's derived seed only drives its fault
    stream.
    """
    if faults is not None and faults.runaway_fired(f"table1:{label}"):
        limit = measurement_budget or 5_000_000
        raise BudgetExceededError(
            f"injected runaway speculation in row {label!r}",
            consumed=limit, budget=limit, label=f"table1:{label}",
        )
    secret = secret.encode("latin-1")
    original, offline, online = [], [], []
    for repetition in range(repetitions):
        rep_seed = root_seed + 1000 * repetition
        for iterations in iteration_choices:
            def budget():
                if measurement_budget is None:
                    return None
                return Watchdog(measurement_budget,
                                label=f"table1:{label}")
            original.append(_measure_host_ipc(
                rep_seed, workload_name, iterations, secret,
                perturb=None, quantum=quantum, watchdog=budget(),
                uarch=uarch,
            ))
            offline.append(_measure_host_ipc(
                rep_seed, workload_name, iterations, secret,
                perturb=OFFLINE_PERTURB, quantum=quantum,
                watchdog=budget(), uarch=uarch,
            ))
            online.append(_measure_host_ipc(
                rep_seed, workload_name, iterations, secret,
                perturb=ONLINE_PERTURB, dynamic=True, quantum=quantum,
                watchdog=budget(), uarch=uarch,
            ))
    return {
        "original": sum(original) / len(original),
        "offline": sum(offline) / len(offline),
        "online": sum(online) / len(online),
    }


def plan_table1(seed=0, rows=TABLE1_ROWS, secret=b"TheMagicWords!!!",
                repetitions=3, quantum=10_000, measurement_budget=None,
                faults=None, uarch="inorder"):
    """Declare the Table-I cell grid: one independent cell per row."""
    plan = SweepPlan("table1", seed, faults=faults)
    for label, workload_name, iteration_choices in rows:
        plan.add(
            f"row/{label}", _row_cell,
            kwargs=dict(
                label=label, workload_name=workload_name,
                iteration_choices=list(iteration_choices),
                root_seed=seed, secret=secret.decode("latin-1"),
                repetitions=repetitions, quantum=quantum,
                measurement_budget=measurement_budget,
                uarch=uarch,
            ),
            seed_kw="cell_seed", faults_kw="faults",
        )
    return plan


def table1_meta(seed, rows, secret, repetitions, quantum,
                uarch="inorder"):
    return {
        "seed": seed,
        "rows": [list(row[:2]) + [list(row[2])] for row in rows],
        "secret": secret.decode("latin-1"),
        "repetitions": repetitions,
        "quantum": quantum,
        "uarch": uarch,
    }


def run_table1(seed=0, rows=TABLE1_ROWS, secret=b"TheMagicWords!!!",
               repetitions=3, quantum=10_000,
               measurement_budget=None, faults=None, uarch="inorder",
               context=None):
    """Regenerate Table I.  Returns a :class:`Table1Result`.

    ``repetitions`` mirrors the paper's averaging over repeated runs
    ("iterating the same application 100 times", scaled down).  Each
    benchmark row is one sweep cell; ``measurement_budget`` (instructions)
    arms a per-measurement watchdog so a runaway co-schedule fails typed
    instead of hanging.  *faults* may inject ``runaway_speculation``:
    the affected row trips its (real or implied) budget and degrades
    into a failed cell rather than spinning forever.
    """
    plan = plan_table1(seed, rows, secret, repetitions, quantum,
                       measurement_budget=measurement_budget,
                       faults=faults, uarch=uarch)
    sweep = execute_plan(plan, context)
    results = sweep.values
    result_rows = []
    for label, _workload, _iterations in rows:
        value = results.get(f"row/{label}")
        if value is not None:
            result_rows.append(Table1Row(
                benchmark=label,
                original_ipc=value["original"],
                offline_ipc=value["offline"],
                online_ipc=value["online"],
            ))
    return Table1Result(sweep=sweep, rows=result_rows)
