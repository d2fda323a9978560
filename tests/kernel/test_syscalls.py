"""Syscall interface tests, especially execve's in-place image swap."""

import pytest

from repro.errors import KernelError
from repro.kernel import System, build_binary
from tests.conftest import run_source


class TestBasicSyscalls:
    def test_exit_code(self):
        process = run_source("""
        main:
            li a0, 1
            li a1, 9
            syscall
        """)
        assert process.exit_code == 9

    def test_write_returns_length(self):
        process = run_source("""
        main:
            li a0, 2
            li a1, 1
            la a2, msg
            li a3, 3
            syscall
            mov a0, rv
            call libc_exit
        .data
        msg: .ascii "abc"
        """)
        assert process.exit_code == 3
        assert process.stdout_text() == "abc"

    def test_getpid(self):
        process = run_source("""
        main:
            li a0, 4
            syscall
            mov a0, rv
            call libc_exit
        """)
        assert process.exit_code >= 100

    def test_unknown_syscall_faults(self):
        process = run_source("""
        main:
            li a0, 999
            syscall
        """)
        assert isinstance(process.fault, KernelError)

    def test_syscall_log(self):
        process = run_source("""
        main:
            li a0, 4
            syscall
            halt
        """)
        log = process.cpu.syscall_handler.log
        assert log[0][0] == "getpid"


class TestExecve:
    def _system(self):
        system = System(seed=3)
        caller = build_binary("caller", """
        main:
            la   a0, path
            li   a1, 0
            call libc_execve
            li   a0, 1        ; only reached if execve failed
            call libc_exit
        .data
        path: .asciiz "/bin/other"
        """)
        other = build_binary("other", """
        main:
            li a0, 42
            call libc_exit
        """)
        system.install_binary("/bin/caller", caller)
        system.install_binary("/bin/other", other)
        return system

    def test_image_replaced_pid_kept(self):
        system = self._system()
        process = system.spawn("/bin/caller")
        pid = process.pid
        process.run_to_completion()
        assert process.exit_code == 42
        assert process.pid == pid
        assert process.image_name == "other"

    def test_pmu_counters_survive_execve(self):
        """The profiler keeps attributing events to the same process —
        the cloaking property the paper exploits."""
        system = self._system()
        process = system.spawn("/bin/caller")
        process.run_to_completion()
        # Counters include both the caller's and the new image's work.
        assert process.pmu.read()["syscall_instructions"] == 2

    def test_execve_missing_binary_faults(self):
        system = System(seed=3)
        program = build_binary("c", """
        main:
            la   a0, path
            li   a1, 0
            call libc_execve
            halt
        .data
        path: .asciiz "/bin/nonexistent"
        """)
        system.install_binary("/bin/c", program)
        process = system.spawn("/bin/c")
        process.run_to_completion()
        assert isinstance(process.fault, KernelError)

    def test_execve_passes_argument(self):
        system = System(seed=3)
        caller = build_binary("caller", """
        main:
            la   a0, path
            la   a1, arg
            call libc_execve
        .data
        path: .asciiz "/bin/echoarg"
        arg:  .asciiz "xyz"
        """)
        echoarg = build_binary("echoarg", """
        main:
            ; argv[1] length -> exit code
            lw   t0, 4(a2)
            mov  a0, t0
            call libc_exit
        """)
        system.install_binary("/bin/caller", caller)
        system.install_binary("/bin/echoarg", echoarg)
        process = system.spawn("/bin/caller")
        process.run_to_completion()
        assert process.exit_code == 3
