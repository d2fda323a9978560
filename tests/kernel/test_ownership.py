"""Simulated machines are freed by reference counting.

The system owns its processes, a process its core, and a core its
memory, caches, PMU, superblock engine and syscall interface.  Every
back-edge is an argument or a weak reference, so dropping the
``System`` frees the whole machine at once: no object of it waits in
a reference cycle for the cyclic collector.  That holds for traced
runs too: the tracer holds each core's clock weakly, and a freed core
hands it its final reading.
"""

import contextlib
import gc
import io
import weakref

import pytest

from repro.cpu.engine import engine_override
from repro.errors import KernelError
from repro.kernel import System, build_binary
from repro.mem.memory import PERM_W
from repro.obs.tracer import Tracer, activate

#: A hot loop patched by a store into its own code (the code-write
#: listener), a ``write`` syscall, then ``execve`` of a second image.
_CALLER = """
main:
    li   s0, 0
    li   s1, 0
outer:
    li   t0, 40
inner:
    addi t0, t0, -1
patch_me:
    addi s0, s0, 1
    bne  t0, zero, inner
    addi s1, s1, 1
    slti t1, s1, 2
    beq  t1, zero, done
    la   t2, donor
    lw   t3, 4(t2)
    la   a2, patch_me
    sw   t3, 4(a2)
    jmp  outer
done:
    li   a0, 2
    li   a1, 1
    la   a2, msg
    li   a3, 2
    syscall
    la   a0, path
    li   a1, 0
    call libc_execve
    li   a0, 1
    call libc_exit
donor:
    addi s0, s0, 5
.data
msg:  .ascii "ok"
path: .asciiz "/bin/other"
"""

_OTHER = """
main:
    li a0, 42
    call libc_exit
"""


@contextlib.contextmanager
def _gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _spawn(uarch):
    """A machine and its caller process, with W^X dropped on the
    caller's text so its store into code runs."""
    system = System(seed=5, uarch=uarch)
    system.install_binary("/bin/caller", build_binary("caller", _CALLER))
    system.install_binary("/bin/other", build_binary("other", _OTHER))
    process = system.spawn("/bin/caller")
    process.memory.segment_by_name("text").perms |= PERM_W
    return system, process


def _run_machine(uarch, traced=False):
    """Weak references to every part of a machine that ran to exit, a
    PMU reading view of its core and its final clock.  A traced
    in-order core runs step() throughout, so it builds no engine."""
    system, process = _spawn(uarch)
    process.run_to_completion()
    assert process.exit_code == 42
    assert process.image_name == "other"
    assert bytes(process.stdout) == b"ok"
    core = process.cpu
    parts = {
        "system": system,
        "process": process,
        "core": core,
        "memory": core.memory,
        "caches": core.caches,
        "syscalls": core.syscall_handler,
    }
    if uarch == "inorder" and not traced:
        assert core._sb is not None and core._sb.stats["code_writes"]
        parts["engine"] = core._sb
    return ({name: weakref.ref(obj) for name, obj in parts.items()},
            core.pmu, int(core.cycles))


def _alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


@pytest.mark.parametrize("uarch", ["inorder", "ooo"])
def test_dropped_system_frees_every_part(uarch):
    with _gc_disabled(), engine_override("sb"):
        refs, pmu, _ = _run_machine(uarch)
        # A PMU view keeps the core it reads alive, not its System.
        held = _alive(refs)
        assert pmu.read()["instructions"] > 0
        del pmu
        freed = _alive(refs)
    assert "system" not in held and "process" not in held
    assert "core" in held
    assert freed == []


@pytest.mark.parametrize("uarch", ["inorder", "ooo"])
def test_traced_machine_is_freed_and_its_clock_kept(uarch):
    """Under a tracer a dropped machine is freed all the same, and the
    tracer's ``cpu.cycles`` gauge still counts the freed core."""
    tracer = Tracer()
    with _gc_disabled(), activate(tracer):
        refs, pmu, cycles = _run_machine(uarch, traced=True)
        del pmu
        alive = _alive(refs)
    assert alive == []
    assert cycles > 0
    tracer.finalize()
    assert tracer.metrics.gauges["cpu.cycles"] == cycles
    assert tracer.records


def test_execve_after_the_system_is_dropped_faults():
    """A process does not keep its System alive, so its execve fails
    with a typed fault instead of reaching a freed machine."""
    with _gc_disabled():
        process = _spawn("inorder")[1]
        process.run_to_completion()
    assert isinstance(process.fault, KernelError)
    assert "dropped" in str(process.fault)


def _table1_garbage(argv):
    """The type names a quick Table I run leaves in ``gc.garbage``."""
    from repro.cli import main

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["table1", "--quick", "--no-ledger",
                         "--no-cell-cache", *argv]) == 0
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


_MACHINE_TYPES = {"Cpu", "OooCore", "Memory", "Cache", "CacheHierarchy",
                  "SuperblockEngine"}


@pytest.mark.parametrize("uarch", ["inorder", "ooo"])
def test_table1_cell_leaves_no_cyclic_cores(uarch):
    """A quick Table I row leaves no core in the collector's garbage."""
    assert not _table1_garbage(["--uarch", uarch]) & _MACHINE_TYPES


@pytest.mark.parametrize("uarch", ["inorder", "ooo"])
def test_traced_table1_cell_leaves_no_cyclic_cores(uarch, tmp_path):
    """So does a traced one: neither the tracer nor its channels hold
    a core."""
    kinds = _table1_garbage(["--uarch", uarch, "--trace",
                             "--trace-out", str(tmp_path)])
    assert not kinds & (_MACHINE_TYPES | {"Tracer", "TraceChannel"})
