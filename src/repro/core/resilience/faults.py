"""Deterministic fault injection for experiments and attack sweeps.

Every failure mode the resilience layer defends against can be provoked
on demand, from a seed, so degradation paths are exercisable in tests
and in the CI smoke run:

``cache_corruption``
    Probe/cache lines lose their residency (modelled as cache flushes and
    garbled calibration hit timings) — the covert channel goes noisy.
``hpc_drop``
    The profiler loses sample windows (PAPI overrun) — whole batches can
    vanish, raising :class:`SampleCorruptionError` when nothing survives.
``hpc_garble``
    Sample windows survive but some event counts are scrambled.
``miscalibration``
    The covert-channel threshold calibration returns inseparable hit and
    miss latency populations — :class:`CalibrationError` upstream.
``classifier_divergence``
    A detector's training draw fails to converge —
    :class:`ClassifierConvergenceError`.
``runaway_speculation``
    A run loop (e.g. an injected ROP chain) never terminates — the
    watchdog's :class:`~repro.errors.BudgetExceededError` is the only
    way out.
"""

import dataclasses
import random

from repro.errors import (
    ClassifierConvergenceError,
    SampleCorruptionError,
)

#: Every fault kind the injector understands, in taxonomy order.
FAULT_KINDS = (
    "cache_corruption",
    "hpc_drop",
    "hpc_garble",
    "miscalibration",
    "classifier_divergence",
    "runaway_speculation",
)

#: Assembly image that never halts: what a runaway injected chain or a
#: non-converging adaptive mutation looks like to the watchdog.
RUNAWAY_SOURCE = """
.text
main:
    li   t0, 0
runaway_spin:
    addi t0, t0, 1
    jmp  runaway_spin
"""


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One consultation of the injector: did *kind* fire at *context*?"""

    kind: str
    context: str
    fired: bool


class FaultInjector:
    """Seeded, rate-driven fault source.

    ``rates`` maps fault kind → per-consultation firing probability
    (1.0 = always).  ``max_fires`` optionally caps how often each kind
    fires — e.g. ``max_fires=2`` lets a retry loop succeed on its third
    attempt, which is how the smoke run proves backoff works.
    """

    def __init__(self, seed=0, rates=None, max_fires=None):
        rates = dict(rates or {})
        unknown = set(rates) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kinds: {sorted(unknown)}; "
                f"choose from {FAULT_KINDS}"
            )
        self.seed = seed
        self.rates = rates
        self.max_fires = max_fires
        self._rng = random.Random(seed)
        self.fired = {kind: 0 for kind in FAULT_KINDS}
        self.log = []

    # ---- derivation (parallel sweeps) -----------------------------------
    def derive(self, seed):
        """A fresh injector with this one's rates/caps and a new seed.

        Parallel sweeps give every cell its own derived injector (seeded
        from the cell key, see ``repro.exec.seeds``) so fault streams do
        not depend on execution order or worker assignment.  ``max_fires``
        therefore caps fires *per cell* in a planned sweep, not per run.
        """
        return FaultInjector(
            seed=seed, rates=self.rates, max_fires=self.max_fires
        )

    def absorb(self, fired):
        """Fold a derived injector's fired counts into this telemetry."""
        for kind, count in fired.items():
            self.fired[kind] = self.fired.get(kind, 0) + count

    # ---- firing decisions ------------------------------------------------
    def armed(self, kind):
        return self.rates.get(kind, 0.0) > 0.0

    def _cap_for(self, kind):
        if self.max_fires is None:
            return None
        if isinstance(self.max_fires, dict):
            return self.max_fires.get(kind)
        return self.max_fires

    def should_fire(self, kind, context=""):
        """Draw once; record the consultation in ``log`` either way."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        rate = self.rates.get(kind, 0.0)
        cap = self._cap_for(kind)
        if cap is not None and self.fired[kind] >= cap:
            fired = False
        else:
            fired = rate > 0.0 and self._rng.random() < rate
        if fired:
            self.fired[kind] += 1
        self.log.append(FaultEvent(kind=kind, context=context, fired=fired))
        return fired

    # ---- application helpers --------------------------------------------
    def filter_samples(self, samples, context="sampling"):
        """Apply ``hpc_drop``/``hpc_garble`` to a batch of profiler samples.

        Returns the (possibly degraded) batch; raises
        :class:`SampleCorruptionError` when a non-empty batch loses every
        window — the sweep cell can then fail typed instead of training a
        detector on nothing.
        """
        if not samples or not (self.armed("hpc_drop")
                               or self.armed("hpc_garble")):
            return samples
        out = []
        for sample in samples:
            if self.should_fire("hpc_drop", context):
                continue
            if self.should_fire("hpc_garble", context):
                sample = self._garble(sample)
            out.append(sample)
        if samples and not out:
            raise SampleCorruptionError(
                f"{context}: all {len(samples)} HPC windows dropped "
                f"by injected faults"
            )
        return out

    def _garble(self, sample):
        """Scramble a few event counters of one window (overrun noise)."""
        events = dict(sample.events)
        names = sorted(events)
        for _ in range(max(1, len(names) // 8)):
            name = self._rng.choice(names)
            events[name] = events.get(name, 0.0) * self._rng.uniform(
                10.0, 1000.0
            )
        return dataclasses.replace(sample, events=events)

    def corrupt_calibration(self, calibration):
        """Model corrupted probe lines / a mis-set threshold.

        Returns a calibration whose hit and miss populations overlap, so
        ``separable`` is False and the caller raises
        :class:`~repro.errors.CalibrationError`.
        """
        hits = list(calibration.hit_latencies)
        misses = list(calibration.miss_latencies)
        # Collapse the gap: slowest "miss" now undercuts the fastest hit.
        floor = min(hits) - 1 if hits else 0
        for index in range(0, len(misses), 2):
            misses[index] = max(1, floor)
        return dataclasses.replace(
            calibration,
            hit_latencies=tuple(hits),
            miss_latencies=tuple(misses),
        )

    def corrupt_cache(self, caches, context="cache"):
        """Invalidate live cache state (the residency-loss degradation)."""
        if self.should_fire("cache_corruption", context):
            caches.flush_all()
            return True
        return False

    def check_convergence(self, name, context="fit"):
        """Raise :class:`ClassifierConvergenceError` when the kind fires."""
        if self.should_fire("classifier_divergence", f"{context}:{name}"):
            raise ClassifierConvergenceError(
                f"injected fault: detector {name!r} failed to converge"
            )

    def runaway_fired(self, context="run"):
        """True when this run should be replaced by a non-halting image."""
        return self.should_fire("runaway_speculation", context)

    def summary(self):
        """Fired counts per kind, for reports and telemetry."""
        return {k: v for k, v in self.fired.items() if v}
