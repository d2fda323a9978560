"""Ambient execution-engine selection for the interpreter cores.

Three engines execute the same ISA behind the same ``CpuCore``
contract, and all three are bit-exact with :meth:`Cpu.step` (the
differential suites in ``tests/cpu/`` pin this):

``step``
    The readable reference: one :meth:`Cpu.step` call per retired
    instruction.  Slowest; used for differential testing and as the
    deopt target of the other two.
``fast``
    The locals-bound interpreter loop in :meth:`Cpu.run` — PR 4's
    ~8-11x over the seed interpreter.
``sb``
    The superblock translation engine (the default): the fast loop plus
    a per-PC cache of compiled basic-block closures
    (:mod:`repro.cpu.superblock`).

The mode is *ambient*, resolved once per ``Cpu`` at construction like
the tracer and profiler, and is deliberately **not** part of the
experiment configuration: it never enters manifests, run ids or cell
cache keys, so ``repro compare`` between a superblock run and a
step-loop run of the same experiment exits 0 — that byte-parity *is*
the engine's acceptance test.

:func:`set_engine_mode` mirrors the choice into ``REPRO_ENGINE`` so
spawn-based pool workers (which import this module fresh)
inherit the driver's engine.
"""

import contextlib
import os

#: Recognised engine names, in deopt order (sb deopts to the step loop).
ENGINE_MODES = ("step", "fast", "sb")

#: Environment variable consulted at import; how the driver's choice
#: propagates to spawn-based pool workers.
ENGINE_ENV_VAR = "REPRO_ENGINE"

DEFAULT_ENGINE = "sb"


def _from_env():
    value = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    return value if value in ENGINE_MODES else DEFAULT_ENGINE


_mode = _from_env()


def engine_mode():
    """The ambient engine for cores constructed from now on."""
    return _mode


def set_engine_mode(mode):
    """Select the ambient engine; propagates to spawned workers.

    Returns the previous mode.  Raises ``ValueError`` on unknown names
    so a CLI typo fails loudly instead of silently running the default.
    """
    global _mode
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine {mode!r}; choose from {', '.join(ENGINE_MODES)}"
        )
    previous = _mode
    _mode = mode
    os.environ[ENGINE_ENV_VAR] = mode
    return previous


@contextlib.contextmanager
def engine_override(mode):
    """Run a ``with`` block under *mode*, then restore the previous one."""
    previous = set_engine_mode(mode)
    try:
        yield
    finally:
        set_engine_mode(previous)
