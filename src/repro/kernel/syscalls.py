"""Syscall numbers and the kernel-side handler.

ABI: syscall number in ``a0``, arguments in ``a1``..``a3``, result in
``rv``.  ``execve`` is the one that matters to the paper — it is the
ROP chain's destination and swaps the process image *in place*, keeping
the PID (and therefore the profiler's attribution to the white-listed
host).
"""

import weakref

from repro.errors import KernelError
from repro.isa.registers import A1, A2, A3, RV

SYS_EXIT = 1
SYS_WRITE = 2
SYS_EXECVE = 3
SYS_GETPID = 4
SYS_YIELD = 5

SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_WRITE: "write",
    SYS_EXECVE: "execve",
    SYS_GETPID: "getpid",
    SYS_YIELD: "yield",
}


class SyscallInterface:
    """Dispatches syscalls for one process on behalf of the system.

    The system owns the process, the process owns its core and the
    core owns this interface, so both back-edges (to the process and
    to the system) are weak references, dereferenced once per
    syscall.  Dropping the :class:`~repro.kernel.system.System` frees
    the whole machine by reference counting.
    """

    def __init__(self, system, process):
        self._system = weakref.ref(system)
        self._process = weakref.ref(process)
        self.log = []  # (name, args) tuples, for tests and auditing

    def __call__(self, cpu):
        regs = cpu.state.regs
        number = regs[2]  # a0
        args = (regs[A1], regs[A2], regs[A3])
        name = SYSCALL_NAMES.get(number)
        self.log.append((name or f"unknown({number})", args))
        process = self._process()
        if cpu._tr_kernel is not None:
            cpu._tr_kernel.event("kernel.syscall",
                                 syscall=name or f"unknown({number})",
                                 pid=process.pid)
        if name is None:
            raise KernelError(f"unknown syscall number {number}")
        handler = getattr(self, "_sys_" + name)
        result = handler(process, cpu, *args)
        if result is not None:
            cpu.state.write_reg(RV, result)

    # ------------------------------------------------------------------
    def _sys_exit(self, process, cpu, code, _a2, _a3):
        cpu.state.exit_code = code
        cpu.state.halted = True
        return None

    def _sys_write(self, process, cpu, fd, buf, length):
        if length > 1 << 20:
            raise KernelError(f"write length too large: {length}")
        data = process.memory.read_bytes(buf, length)
        if fd in (1, 2):
            process.stdout += data
        return length

    def _sys_execve(self, process, cpu, path_ptr, arg_ptr, _a3):
        path = process.memory.read_cstring(path_ptr).decode("latin-1")
        argument = None
        if arg_ptr:
            argument = process.memory.read_cstring(arg_ptr)
        system = self._system()
        if system is None:
            raise KernelError(
                f"execve of {path!r} after its System was dropped"
            )
        system.do_execve(process, path, argument)
        return 0

    def _sys_getpid(self, process, cpu, _a1, _a2, _a3):
        return process.pid

    def _sys_yield(self, process, cpu, _a1, _a2, _a3):
        # Cooperative yield: the scheduler slices by instruction quantum,
        # so this is accounting-only.
        return 0
