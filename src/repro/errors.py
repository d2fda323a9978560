"""Exception hierarchy for the CR-Spectre reproduction.

Every error raised by the simulator, the toolchain, the attack layer or the
HID layer derives from :class:`ReproError`, so callers can catch one base
class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TransientError(ReproError):
    """An error a retry can plausibly fix (noise, mis-calibration, ...).

    The resilience layer's retry decorator re-attempts operations that
    raise a :class:`TransientError` subclass; everything else is treated
    as fatal and propagates immediately.
    """


class FatalError(ReproError):
    """An error no amount of retrying will fix (bad config, bad input)."""


def is_transient(exc):
    """True when *exc* (or any link of its cause chain) is retryable."""
    while exc is not None:
        if isinstance(exc, TransientError):
            return True
        exc = exc.__cause__
    return False


class AssemblerError(ReproError):
    """Raised when assembly source cannot be parsed or encoded."""

    def __init__(self, message, line_number=None, line=None):
        location = "" if line_number is None else f" (line {line_number}: {line!r})"
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""


class MemoryFault(ReproError):
    """Base class for simulated memory faults."""

    def __init__(self, message, address=None):
        if address is not None:
            message = f"{message} at address {address:#010x}"
        super().__init__(message)
        self.address = address


class SegmentationFault(MemoryFault):
    """Access to an unmapped address."""


class ProtectionFault(MemoryFault):
    """Access violating page permissions (e.g. executing a DEP page)."""


class AlignmentFault(MemoryFault):
    """Misaligned word access."""


class CpuFault(ReproError):
    """Raised for architectural faults during execution."""


class ShadowStackViolation(CpuFault):
    """Return address mismatch detected by the shadow-stack countermeasure."""


class PrivilegeFault(CpuFault):
    """Unprivileged use of a restricted instruction (e.g. clflush)."""


class StackCanaryViolation(CpuFault):
    """Stack canary corrupted; the process aborts before returning."""


class KernelError(ReproError):
    """Raised by the simulated OS layer (bad syscall, missing binary...)."""


class LoaderError(KernelError):
    """Raised when a program cannot be loaded or relocated."""


class AttackError(ReproError):
    """Raised by the attack toolchain (no gadget found, bad payload...)."""


class GadgetNotFoundError(AttackError):
    """A required ROP gadget does not exist in the scanned image."""


class HidError(ReproError):
    """Raised by the HID layer (bad dataset, untrained classifier...)."""


class BudgetExceededError(ReproError):
    """A watchdog's instruction/quantum budget was exhausted.

    Raised instead of hanging when an injected ROP chain loops forever or
    an adaptive mutation never converges.  Deliberately *not* transient:
    retrying the same run would burn the same budget again; callers must
    either raise the budget or treat the run as lost.
    """

    def __init__(self, message, consumed=None, budget=None, label=None):
        if budget is not None:
            message = (
                f"{message} (consumed {consumed} of {budget} instructions"
                + (f" in {label!r}" if label else "") + ")"
            )
        super().__init__(message)
        self.consumed = consumed
        self.budget = budget
        self.label = label


class CalibrationError(AttackError, TransientError):
    """Covert-channel calibration produced inseparable hit/miss timings."""

    def __init__(self, message, calibration=None):
        super().__init__(message)
        self.calibration = calibration


class CovertChannelError(AttackError, TransientError):
    """A covert-channel read failed or returned garbage (noise burst)."""


class ClassifierConvergenceError(HidError, TransientError):
    """A detector's training loop failed to converge on this draw."""


class SampleCorruptionError(HidError, TransientError):
    """HPC sampling lost or garbled too many windows to proceed."""


class WorkerCrashError(TransientError):
    """A sweep worker process died mid-cell (crash, OOM-kill, _exit).

    Transient by design: the cell itself is deterministic, so a retry on
    a fresh worker can succeed; if the crash reproduces, the pool
    backend converts the cell into a failed-cell outcome after its
    retry budget and the sweep degrades into a partial report.
    """


class RetryExhaustedError(ReproError):
    """All retry attempts failed; ``__cause__`` holds the last error."""

    def __init__(self, message, attempts=None):
        if attempts is not None:
            message = f"{message} (gave up after {attempts} attempts)"
        super().__init__(message)
        self.attempts = attempts


class InjectedFault(TransientError):
    """Raised by the fault injector itself for kinds modelled as errors."""

    def __init__(self, message, kind=None):
        super().__init__(message)
        self.kind = kind
