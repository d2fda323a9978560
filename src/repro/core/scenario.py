"""Scenario runner: the glue that stages one CR-Spectre campaign.

Owns a :class:`~repro.kernel.system.System` with the host (vulnerable
build), other benign applications and attack binaries installed, and
produces labelled profiler samples on demand — benign streams from the
white-listed applications, attack streams from an actual ROP injection
followed by in-place ``execve`` of the generated Spectre binary.

Benign profiles are keyed by everything their simulation reads, so
inside an executor scope (:func:`repro.hid.memo.memo_scope`)
identical browser and editor profiles of different cells are simulated
once and replayed after that.
"""

import dataclasses

from repro.attack import (
    SpectreConfig,
    build_spectre,
    plan_execve_injection,
)
from repro.cpu.engine import engine_mode
from repro.errors import AttackError
from repro.hid.samples import ATTACK, BENIGN
from repro.hid.profiler import Profiler
from repro.kernel.process import ProcessState
from repro.kernel.system import System
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from repro.workloads import get_workload

#: Effectively-infinite loop counts so profiled processes never run dry.
PROFILE_ITERATIONS = 1 << 28
PROFILE_REPEATS = 1 << 20

DEFAULT_SECRET = b"TheMagicWords!!!"


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of one campaign (paper Section III-A, scaled)."""

    host: str = "basicmath"
    benign_apps: tuple = ("browser", "editor")
    secret: bytes = DEFAULT_SECRET
    seed: int = 0
    quantum: int = 2000
    measurement_noise: float = 0.05
    spectre_variants: tuple = ("v1", "rsb", "sbo")
    training_rounds: int = 6
    stride: int = 64
    #: Microarchitecture of every machine this campaign stages
    #: (``repro.uarch`` registry name: "inorder" or "ooo").
    uarch: str = "inorder"


class Scenario:
    """One installed machine + sampling helpers.

    *faults* (a :class:`~repro.core.resilience.FaultInjector`) threads
    the resilience layer through sampling: armed ``hpc_drop`` /
    ``hpc_garble`` kinds degrade every batch of profiler windows, and
    ``cache_corruption`` invalidates the profiled process's caches before
    sampling — the degradation paths the robustness tests exercise.
    """

    def __init__(self, config=None, faults=None):
        self.config = config or ScenarioConfig()
        self.faults = faults
        cfg = self.config
        self.system = System(
            seed=cfg.seed,
            target_data=cfg.secret,
            quantum=cfg.quantum,
            uarch=cfg.uarch,
        )
        self.profiler = Profiler(
            quantum=cfg.quantum,
            noise=cfg.measurement_noise,
            seed=cfg.seed,
        )
        self._installed_attacks = {}

        self.host_workload = get_workload(cfg.host)
        self.host_program = self.host_workload.build(
            iterations=PROFILE_ITERATIONS, hosted=True
        )
        self.host_path = f"/bin/{cfg.host}"
        self.system.install_binary(self.host_path, self.host_program)

        for app in cfg.benign_apps:
            workload = get_workload(app)
            self.system.install_binary(
                f"/bin/{app}",
                workload.build(iterations=PROFILE_ITERATIONS),
            )

    # ---- attack binary management -----------------------------------------
    def _attack_config(self, perturb):
        cfg = self.config
        return SpectreConfig(
            secret_length=len(cfg.secret),
            repeats=PROFILE_REPEATS,
            training_rounds=cfg.training_rounds,
            stride=cfg.stride,
            perturb=perturb,
        )

    def install_attack(self, variant, perturb=None):
        """Build + install a Spectre binary; returns its path."""
        key = (variant, perturb)
        if key in self._installed_attacks:
            return self._installed_attacks[key]
        program = build_spectre(variant, self._attack_config(perturb))
        path = f"/bin/.cr_{variant}_{len(self._installed_attacks)}"
        self.system.install_binary(path, program)
        self._installed_attacks[key] = path
        return path

    # ---- sampling ------------------------------------------------------
    def _degrade(self, samples, context):
        """Run a fresh batch through the fault injector, if armed."""
        if self.faults is None:
            return samples
        return self.faults.filter_samples(samples, context=context)

    def _profile_key(self, process, path, num_samples):
        """Content key of a fresh benign profile of *process* (spawned
        from *path* without arguments), or ``None`` when it must be
        simulated: armed faults, tracing and the virtual-cycle profiler
        observe the run itself, and ASLR, a shared L2 or a watchdog
        make it depend on more than the key.  The seed only feeds ASLR
        and the pid only ``getpid`` (never stored), so neither is in it.
        """
        system = self.system
        if (self.faults is not None or current_tracer().enabled
                or current_profiler().enabled or system.aslr
                or system.shared_l2 is not None
                or process.cpu.watchdog is not None):
            return None
        program = system.lookup_binary(path)
        profiler = self.profiler
        return (
            system.uarch, repr(system.uarch_params),
            repr(system.cpu_config), repr(system.cache_config),
            system.target_data, engine_mode(),
            program.name, program.text, program.data, program.entry,
            tuple(program.symbols.items()), tuple(program.relocations),
            (), path,  # argv, path
            profiler.quantum, profiler.warmup_windows,
            num_samples,
        )

    def benign_samples(self, num_samples, include_extras=True):
        """Windows from the host + the other benign applications."""
        sources = [self.host_path]
        if include_extras:
            sources += [f"/bin/{app}" for app in self.config.benign_apps]
        per_source = max(1, num_samples // len(sources))
        samples = []
        for path in sources:
            process = self.system.spawn(path)
            if self.faults is not None:
                self.faults.corrupt_cache(
                    process.cpu.caches, context=f"benign:{path}"
                )
            samples.extend(self.profiler.profile(
                process, per_source, label=BENIGN,
                memo_key=self._profile_key(process, path, per_source),
            ))
        samples = (
            samples[:num_samples] if len(samples) > num_samples else samples
        )
        return self._degrade(samples, "benign_samples")

    def attack_samples(self, num_samples, variant="v1", perturb=None):
        """Windows from one injected attack run (the paper's Fig. 1 flow).

        Spawns the vulnerable host with the Listing-1 payload as argv[1];
        the ROP chain fires during the first window and the remaining
        windows profile the (possibly perturbed) Spectre binary executing
        under the host's PID.
        """
        current_tracer().event(
            "attack.samples", "attack", variant=variant,
            perturbed=perturb is not None, samples=num_samples,
        )
        attack_path = self.install_attack(variant, perturb)
        plan = plan_execve_injection(
            self.host_program, self.host_path, attack_path
        )
        process = self.system.spawn(self.host_path, argv=plan.argv)
        if self.faults is not None:
            self.faults.corrupt_cache(
                process.cpu.caches, context=f"attack:{variant}"
            )
        samples = self.profiler.profile(process, num_samples, label=ATTACK)
        if process.state == ProcessState.FAULTED:
            raise AttackError(
                f"injection into {self.host_path} faulted: {process.fault}"
            )
        if process.image_name == self.host_program.name:
            raise AttackError("execve never happened; payload did not fire")
        return self._degrade(samples, f"attack_samples:{variant}")

    def attack_samples_mixed_variants(self, num_samples, perturb=None):
        """Equal share of windows from every configured Spectre variant."""
        variants = self.config.spectre_variants
        per_variant = max(1, num_samples // len(variants))
        samples = []
        for variant in variants:
            samples.extend(
                self.attack_samples(per_variant, variant=variant,
                                    perturb=perturb)
            )
        return samples

    # ---- attack-efficacy check ------------------------------------------
    def verify_secret_recovery(self, variant="v1", perturb=None):
        """Run one bounded extraction and compare against the ground truth.

        Returns ``(recovered_bytes, num_correct)``.
        """
        cfg = self.config
        program = build_spectre(
            variant,
            dataclasses.replace(self._attack_config(perturb), repeats=1),
        )
        path = f"/bin/.verify_{variant}"
        self.system.install_binary(path, program)
        plan = plan_execve_injection(self.host_program, self.host_path, path)
        process = self.system.spawn(self.host_path, argv=plan.argv)
        process.run_to_completion(max_instructions=80_000_000)
        recovered = bytes(process.stdout)[:len(cfg.secret)]
        correct = sum(
            a == b for a, b in zip(recovered, cfg.secret)
        )
        return recovered, correct
