"""Runtime HPC profiler (the paper's PAPI-based monitoring tool).

Samples a process's PMU at fixed instruction quanta — the simulated
equivalent of timer-driven performance-counter reads.  Each window's
event *deltas* form one sample; the HID never sees anything else.

The profile memo of the active :func:`~repro.hid.memo.memo_scope`
lets a profile whose caller supplies a content key replay the raw
deltas an identical earlier profile measured instead of simulating
them again (see docs/PARALLELISM.md, "Sweep memos").
"""

import random

from repro.hid.samples import ATTACK, BENIGN, Sample
from repro.hid.memo import active_memos
from repro.obs.tracer import current_tracer

#: Event deltas one OS timer tick / interrupt contributes to a window.
#: Real PAPI sampling cannot exclude kernel activity; the paper's
#: accuracy wiggle across attempts comes from exactly this kind of
#: measurement noise.
_TICK_PROFILE = {
    "instructions": 180,
    "alu_instructions": 90,
    "load_instructions": 35,
    "store_instructions": 20,
    "branch_instructions": 45,
    "cond_branch_instructions": 30,
    "branches_taken": 20,
    "branch_mispredictions": 5,
    "cond_branch_mispredictions": 4,
    "cycles": 900,
    "total_cache_accesses": 70,
    "total_cache_hits": 58,
    "total_cache_misses": 12,
    "l1d_accesses": 55,
    "l1d_hits": 46,
    "l1d_misses": 9,
    "l1d_read_accesses": 35,
    "l1d_read_misses": 6,
    "l1d_write_accesses": 20,
    "l1d_write_misses": 3,
    "l1i_accesses": 15,
    "l1i_misses": 3,
    "l2_accesses": 12,
    "l2_hits": 8,
    "l2_misses": 4,
    "dtlb_accesses": 55,
    "dtlb_misses": 2,
    "itlb_accesses": 15,
    "itlb_misses": 1,
    "memory_stall_cycles": 500,
}


#: Syscalls whose effect a profile key does not cover: ``getpid``
#: reads the pid and ``execve`` runs another binary.  A profile that
#: made either is never stored.
_UNKEYED_SYSCALLS = frozenset(("execve", "getpid"))


def active_profile_memo():
    """The innermost scope's profile :class:`~repro.hid.memo.Memo`,
    or ``None``."""
    memos = active_memos()
    return memos.profiles if memos is not None else None


class Profiler:
    """Quantum-based PMU sampler.

    ``noise`` adds two realism effects to every window: multiplicative
    read jitter (relative σ) and, with probability ``tick_probability``,
    an additive OS-tick burst (:data:`_TICK_PROFILE` scaled randomly).
    ``noise=0`` gives bit-exact deterministic sampling for tests.
    """

    def __init__(self, quantum=2000, warmup_windows=2, noise=0.0,
                 tick_probability=0.15, seed=0):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self.warmup_windows = warmup_windows
        self.noise = noise
        self.tick_probability = tick_probability
        self._rng = random.Random(seed)

    def _measure(self, events):
        """Apply the measurement-noise model to raw PMU deltas."""
        if not self.noise:
            return events
        rng = self._rng
        out = {}
        for name, value in events.items():
            factor = max(0.0, rng.gauss(1.0, self.noise))
            out[name] = value * factor
        if rng.random() < self.tick_probability:
            scale = rng.uniform(0.5, 2.5)
            for name, burst in _TICK_PROFILE.items():
                out[name] = out.get(name, 0.0) + burst * scale
        return out

    def profile(self, process, num_samples, label=BENIGN, name=None,
                memo_key=None):
        """Run *process* alone, collecting up to *num_samples* windows.

        Warm-up windows (cold caches, loader effects) are discarded.
        Returns fewer samples if the process terminates first — callers
        size workload iterations generously.

        *memo_key* (the content key of a freshly spawned process's
        profile, built by the caller) consults the active memo: a hit
        leaves *process* unstepped and applies the noise model to a
        copy of each stored delta, in order, so the noise RNG advances
        exactly as profiling would advance it.  A miss profiles and
        stores the deltas, unless the process died or made a syscall
        in :data:`_UNKEYED_SYSCALLS`.
        """
        name = name or process.name
        memo = active_profile_memo() if memo_key is not None else None
        recorded = None
        if memo is not None:
            deltas = memo.entries.get(memo_key)
            if deltas is not None:
                memo.hits += 1
                return [Sample(process_name=name, label=label,
                               events=self._measure(dict(delta)))
                        for delta in deltas]
            memo.misses += 1
            recorded = []
        tracer = current_tracer()
        trace = (tracer.channel("hid", getattr(process.cpu, "trace_clk", 0))
                 if tracer.enabled else None)
        ts0 = trace.now() if trace is not None else 0
        samples = []
        windows_seen = 0
        snapshot = process.pmu.snapshot()
        while len(samples) < num_samples and process.alive:
            executed = process.step_quantum(self.quantum)
            if executed == 0:
                break
            delta = process.pmu.delta_since(snapshot)
            snapshot = process.pmu.snapshot()
            windows_seen += 1
            if windows_seen <= self.warmup_windows:
                continue
            if trace is not None:
                # Raw (pre-noise) integer deltas: the trace stays
                # byte-stable even when the noise model is armed.
                trace.event(
                    "hid.window", n=len(samples),
                    instructions=int(delta.get("instructions", 0)),
                    misses=int(delta.get("total_cache_misses", 0)),
                )
            if recorded is not None:
                recorded.append(dict(delta))
            samples.append(Sample(
                process_name=name,
                label=label,
                events=self._measure(delta),
            ))
        if trace is not None:
            trace.complete("hid.profile", ts0,
                           process=name,
                           label=int(label), windows=len(samples))
        if recorded is not None and process.alive and not any(
                call in _UNKEYED_SYSCALLS
                for call, _ in process.cpu.syscall_handler.log):
            memo.entries[memo_key] = recorded
            memo.stored += 1
        return samples

    def profile_concurrent(self, system, labelled_processes, num_samples):
        """Round-robin the processes, sampling each quantum (realism mode).

        ``labelled_processes`` is ``[(process, label), ...]``.  Collection
        stops when every process has *num_samples* windows or has died.
        """
        labels = {id(process): label for process, label in labelled_processes}
        snapshots = {
            id(process): process.pmu.snapshot()
            for process, _ in labelled_processes
        }
        counts = {id(process): 0 for process, _ in labelled_processes}
        collected = []

        def on_quantum(process, executed):
            key = id(process)
            if key not in labels:
                return
            delta = process.pmu.delta_since(snapshots[key])
            snapshots[key] = process.pmu.snapshot()
            counts[key] += 1
            if counts[key] <= self.warmup_windows:
                return
            if counts[key] - self.warmup_windows <= num_samples:
                collected.append(Sample(
                    process_name=process.name,
                    label=labels[key],
                    events=self._measure(delta),
                ))

        processes = [process for process, _ in labelled_processes]
        needed = num_samples + self.warmup_windows
        max_quanta = needed * len(processes) * 4
        system.scheduler.quantum = self.quantum
        system.run(processes, max_quanta=max_quanta, on_quantum=on_quantum)
        current_tracer().event(
            "hid.profile_concurrent", "hid",
            processes=len(processes), windows=len(collected),
        )
        return collected


def benign_label():
    return BENIGN


def attack_label():
    return ATTACK
