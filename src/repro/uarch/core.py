"""The ``CpuCore`` interface and the microarchitecture registry.

One simulated machine can be built around different CPU cores as long
as they honour a single contract — the :class:`CpuCore` interface.  The
kernel, profiler, PMU, tracer and attack layers all program against it,
so a new microarchitecture slots in behind ``System(uarch=...)`` without
touching any of them.

The contract (duck-typed; ``CpuCore`` documents it and registers the
concrete cores as virtual subclasses so ``isinstance`` works):

Attributes
    ``memory``, ``caches``, ``predictor``, ``config`` (a
    :class:`~repro.cpu.cpu.CpuConfig`), ``state`` (a
    :class:`~repro.cpu.state.CpuState`), ``dtlb``/``itlb``, ``counters``
    (the directly counted events), ``op_counts`` (the retire tally: a
    list indexed by opcode, bumped once per committed instruction as it
    is fetched for commit, so a faulting or halting op counts too) and
    ``pmu`` (a reading view of both, which derives the instruction mix
    from the tally through :data:`repro.isa.semantics.EVENTS`),
    ``cycles`` (float virtual clock), ``shadow_stack`` (or ``None``),
    ``kernel_mode``, ``syscall_handler``, ``watchdog`` (duck-typed
    ``.charge(n)`` budget guard, or ``None``), plus the tracer bindings
    ``trace_clk``, ``_tr_cpu`` and ``_tr_kernel`` the kernel layer
    emits through.

Methods
    ``step()`` — retire one architectural instruction, ``False`` on
    halt; ``run(max_instructions=None)`` — retire until halt or the
    budget, returning the retired count, with every architectural
    observable (``state``, ``cycles``, PMU counters and retire tally,
    caches, TLBs)
    synchronised on *every* exit path including faults; and
    ``reset_for_exec()`` — flush decode/translation/predictor return
    state after ``execve`` remaps the address space.

Speculation contract
    Wrong-path execution must never write architectural state (memory
    or committed registers) but must perturb the caches and TLBs and
    account ``spec_instructions`` / ``spec_loads`` /
    ``spec_cache_fills`` / ``squashed_instructions`` — that persistence
    is the paper's covert channel and the HID's feature signal, so a
    core that squashes cache fills would silently break every
    experiment downstream.

Execution engines
    *How* ``run()`` retires instructions is a core-private choice, not
    part of the contract: the ambient engine knob (``--engine`` /
    ``REPRO_ENGINE``, see :mod:`repro.cpu.engine`) selects between the
    in-order core's step loop and its superblock dispatcher, and a
    core is free to ignore it — the OoO core does.  Whatever
    the engine, the observable machine must stay bit-identical to a
    ``step()``-driven run; engine choice never enters manifests or
    run ids.
"""

import abc

from repro.cpu.cpu import Cpu

#: The default microarchitecture: the in-order speculative core.
DEFAULT_UARCH = "inorder"

#: Registry of microarchitecture name -> factory.  A factory has the
#: same shape as ``Cpu(memory, caches=..., predictor=..., config=...)``
#: plus an optional ``params`` object of core-specific knobs.
UARCHS = {}


class CpuCore(abc.ABC):
    """Abstract marker for the per-microarchitecture CPU contract.

    Concrete cores are *registered*, not subclassed — the in-order
    :class:`~repro.cpu.cpu.Cpu` predates this interface and implements
    it unchanged, which is exactly what keeps the refactor bit-exact.
    """

    @abc.abstractmethod
    def step(self):
        """Retire one architectural instruction; ``False`` on halt."""

    @abc.abstractmethod
    def run(self, max_instructions=None):
        """Retire until halt or budget; returns the retired count."""

    @abc.abstractmethod
    def reset_for_exec(self):
        """Flush decode/translation state after ``execve``."""


def register_uarch(name, factory):
    """Register a core factory under a microarchitecture name."""
    if name in UARCHS:
        raise ValueError(f"microarchitecture {name!r} already registered")
    UARCHS[name] = factory
    CpuCore.register(factory)
    return factory


def make_core(uarch, memory, caches=None, predictor=None, config=None,
              params=None):
    """Instantiate the core for one microarchitecture name.

    ``params`` carries core-specific knobs (e.g.
    :class:`~repro.uarch.ooo.OooParams`); cores that take none reject a
    non-``None`` value so a typo'd knob cannot be dropped silently.
    """
    try:
        factory = UARCHS[uarch]
    except KeyError:
        raise ValueError(
            f"unknown microarchitecture {uarch!r} "
            f"(have {sorted(UARCHS)})"
        )
    if factory is Cpu:
        if params is not None:
            raise ValueError(
                "the in-order core takes no uarch params; "
                "use CpuConfig for its knobs"
            )
        return Cpu(memory, caches=caches, predictor=predictor,
                   config=config)
    return factory(memory, caches=caches, predictor=predictor,
                   config=config, params=params)


register_uarch("inorder", Cpu)
