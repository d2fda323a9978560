"""Microarchitectures behind the common :class:`CpuCore` interface.

``make_core("inorder", ...)`` returns the classic in-order speculative
core (:class:`repro.cpu.cpu.Cpu`, constructed exactly as before — the
refactor is bit-exact); ``make_core("ooo", ...)`` returns the Tomasulo
out-of-order core where reorder-buffer depth bounds transient
execution.  See ``docs/MICROARCH.md`` for the contract and the design.
"""

from repro.uarch.core import (
    DEFAULT_UARCH,
    UARCHS,
    CpuCore,
    make_core,
    register_uarch,
)
from repro.uarch.ooo import OooCore, OooParams
from repro.uarch.structures import ReorderBuffer

__all__ = [
    "CpuCore",
    "DEFAULT_UARCH",
    "OooCore",
    "OooParams",
    "ReorderBuffer",
    "UARCHS",
    "make_core",
    "register_uarch",
]
