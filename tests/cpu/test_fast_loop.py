"""The run() dispatcher vs the step() reference, bit for bit.

``Cpu.run`` executes hot straight-line code as compiled superblocks
and everything else through ``Cpu.step``, the readable
single-instruction reference.  These tests pin that a run() leaves the
machine in *identical* observable state to a pure step() loop —
registers, virtual cycles, all 56 PMU events, cache and TLB counters,
process output — across branchy code, full Spectre attacks
(mispredicts + wrong-path speculation), syscalls, the ``execve`` image
swap that replaces the register file and flushes the decode cache
mid-run, faults raised both from cold code (run by step()) and
from inside a compiled block, and the flush+reload timer's ``rdcycle``,
``mfence`` and ``clflush`` run inside blocks.
"""

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.core.resilience.watchdog import Watchdog
from repro.cpu import CpuConfig, engine_override
from repro.errors import (
    BudgetExceededError,
    MemoryFault,
    PrivilegeFault,
    ShadowStackViolation,
)
from repro.isa.semantics import CLFLUSH, MFENCE, NOP, RDCYCLE
from repro.kernel import System, build_binary

SECRET = b"HW!"

_BRANCHY = """
main:
    li   t0, 0          ; i
    li   s0, 7          ; lcg state
    li   s1, 0          ; acc
loop:
    slti t1, t0, 300
    beq  t1, zero, done
    muli s0, s0, 1103515245
    addi s0, s0, 12345
    andi t2, s0, 7
    beq  t2, zero, skip  ; data-dependent branch: mispredicts
    add  s1, s1, t2
    jmp  next
skip:
    addi s1, s1, 1
next:
    addi t0, t0, 1
    jmp  loop
done:
    andi a0, s1, 0xFF
    call libc_exit
"""


def _spawn(source=None, program=None, seed=9, target_data=None,
           cpu_config=None):
    system = System(seed=seed, target_data=target_data,
                    cpu_config=cpu_config)
    program = program or build_binary("testprog", source)
    system.install_binary("/bin/testprog", program)
    return system.spawn("/bin/testprog")


def _run_stepwise(cpu, max_instructions=5_000_000):
    executed = 0
    while not cpu.state.halted and executed < max_instructions:
        cpu.step()
        executed += 1
    return executed


def _snapshot(process):
    cpu = process.cpu
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "halted": cpu.state.halted,
        "exit_code": cpu.state.exit_code,
        "cycles": cpu.cycles,
        "events": cpu.pmu.read(),
        "op_counts": list(cpu.op_counts),
        "stdout": bytes(process.stdout),
    }


class TestFastLoopEquivalence:
    def test_branchy_program_identical_state(self):
        fast = _spawn(_BRANCHY)
        reference = _spawn(_BRANCHY)
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(fast) == _snapshot(reference)

    def test_spectre_attack_identical_state(self):
        # Mispredicts, wrong-path speculation, clflush, rdcycle, fences:
        # every cold path of the dispatch, under one real attack.
        program = build_spectre(
            "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        fast = _spawn(program=program, target_data=SECRET)
        reference = _spawn(program=program, target_data=SECRET)
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(fast) == _snapshot(reference)

    def test_max_instructions_pauses_at_same_point(self):
        fast = _spawn(_BRANCHY)
        reference = _spawn(_BRANCHY)
        # Pause/resume in odd chunk sizes; the paused states must agree
        # chunk for chunk (this is what quantum scheduling does).
        for chunk in (1, 7, 193, 1000, 50_000):
            fast.cpu.run(max_instructions=chunk)
            _run_stepwise(reference.cpu, max_instructions=chunk)
            assert _snapshot(fast) == _snapshot(reference)

    def test_budget_exhaustion_leaves_synced_state(self):
        fast = _spawn(_BRANCHY)
        reference = _spawn(_BRANCHY)
        fast.cpu.watchdog = Watchdog(2048, label="fast")
        reference.cpu.watchdog = Watchdog(2048, label="ref")
        with pytest.raises(BudgetExceededError):
            fast.cpu.run()
        with pytest.raises(BudgetExceededError):
            reference.cpu._run_traced()
        assert _snapshot(fast) == _snapshot(reference)


class TestDecodeCacheAcrossExecve:
    """Decode entries are hit, flushed at execve, and refilled.

    Both images map at the same virtual addresses, so the swap rewrites
    the bytes *under* cached pcs — a stale decode entry (or a stale
    register-file alias inside the fast loop: execve installs a fresh
    regs list) shows up as the old image's behaviour leaking through.
    """

    def _system(self):
        system = System(seed=3)
        caller = build_binary("caller", """
        main:
            li   t0, 50         ; hot loop: decode entries hit repeatedly
        warm:
            addi t0, t0, -1
            bne  t0, zero, warm
            la   a0, path
            li   a1, 0
            call libc_execve
            li   a0, 1          ; only reached if execve failed
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

    def test_hit_flush_refill(self):
        system = self._system()
        process = system.spawn("/bin/caller")
        process.run_to_completion()
        assert process.exit_code == 42
        assert process.image_name == "other"
        # The refilled cache holds the new image's flat dispatch tuples:
        # (op, rd, rs1, rs2, imm, next_pc), next_pc the fall-through.
        cache = process.cpu._decode_cache
        assert cache
        assert all(
            isinstance(entry, tuple) and len(entry) == 6
            and isinstance(entry[0], int)
            and entry[5] == (pc + 8) & 0xFFFFFFFF
            for pc, entry in cache.items()
        )

    def test_execve_state_matches_stepwise_reference(self):
        systems = self._system(), self._system()
        fast, reference = (system.spawn("/bin/caller")
                           for system in systems)
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(fast) == _snapshot(reference)


#: Every iteration loads through t2; on iteration {n} the address moves
#: 1 MiB past the data segment, which is unmapped.
_UNMAPPED_LOAD = """
main:
    li   t0, 0
    la   s0, buf
loop:
    addi t0, t0, 1
    slti t1, t0, {n}
    xori t1, t1, 1
    shli t1, t1, 20
    add  t2, s0, t1
    lw   t3, 0(t2)
    jmp  loop
.data
buf: .word 7
"""

#: A counted loop whose exit falls into a clflush.
_CLFLUSH_EXIT = """
main:
    li   t0, 0
    la   s0, buf
loop:
    addi t0, t0, 1
    lw   t2, 0(s0)
    slti t1, t0, {n}
    bne  t1, zero, loop
    clflush 0(s0)
    li   a0, 0
    call libc_exit
.data
buf: .word 7
"""

#: Flushes ``buf`` every iteration, from the loop's block once hot.
_CLFLUSH_LOOP = """
main:
    li   t0, 0
    la   s0, buf
loop:
    addi t0, t0, 1
    lw   t1, 0(s0)
flush:
    clflush 0(s0)
    slti t2, t0, 1000
    bne  t2, zero, loop
    li   a0, 0
    call libc_exit
.data
buf: .word 7
"""

#: f bumps its own return address by 4 on call {n}; its ret then
#: disagrees with the shadow stack.
_SHADOW_SMASH = """
main:
    li   t0, 0
loop:
    addi t0, t0, 1
    call f
    jmp  loop
f:
    slti t1, t0, {n}
    xori t1, t1, 1
    shli t1, t1, 2
    lw   t2, 0(sp)
    add  t2, t2, t1
    sw   t2, 0(sp)
    ret
"""

#: The flush+reload timer: a load between two cycle reads, every
#: iteration.  s1 sums the measured times; t3 keeps the last raw read.
_TIMED_LOAD = """
main:
    li   t0, 0
    li   s1, 0
    la   s0, buf
loop:
    addi t0, t0, 1
    clflush 0(s0)
    mfence
    rdcycle t1
    lw   t2, 0(s0)
    rdcycle t3
    sub  t2, t3, t1
    add  s1, s1, t2
    slti t2, t0, {n}
    bne  t2, zero, loop
    andi a0, s1, 0xFF
    call libc_exit
.data
buf: .word 7
"""

#: Every iteration flushes ``buf``, except iteration {n}, which flushes
#: the loop's own code line instead; the address is picked without a
#: branch, so the clflush sits in the loop's block either way.
_CODE_CLFLUSH_AT = """
main:
    li   t0, 0
    li   s1, 0
    la   s0, buf
    la   a1, loop
    xor  a1, a1, s0     ; code ^ data
loop:
    addi t0, t0, 1
    xori t1, t0, {n}
    sltu t1, zero, t1   ; 0 on iteration n, else 1
    addi t1, t1, -1     ; all ones on iteration n, else 0
    and  t2, a1, t1
    xor  t2, t2, s0     ; the code line on iteration n, else buf
    clflush 0(t2)
after:
    addi s1, s1, 1
    slti t3, t0, {limit}
    bne  t3, zero, loop
    andi a0, s1, 0xFF
    call libc_exit
.data
buf: .word 7
"""

#: Iteration at which the hot variants fault: far past HOT_THRESHOLD,
#: so the loop runs as compiled blocks by then.
_HOT = 200


class _StepRecorder:
    """Wraps ``cpu.step``: notes each pc it is entered at, whether it
    is running or raised, and how many *op* it retired."""

    def __init__(self, cpu, op=NOP):
        self.cpu = cpu
        self.op = op
        self.pcs = []
        self.active = False
        self.raised = False
        self.retired = 0
        self._step = cpu.step
        cpu.step = self._recording_step

    def _recording_step(self):
        cpu = self.cpu
        before = cpu.op_counts[self.op]
        self.pcs.append(cpu.state.pc)
        self.active = True
        try:
            return self._step()
        except Exception:
            self.raised = True
            raise
        finally:
            self.active = False
            self.retired += cpu.op_counts[self.op] - before

    def in_blocks(self):
        """How many *op* retired inside compiled blocks."""
        return self.cpu.op_counts[self.op] - self.retired


class TestFaultParity:
    """A fault out of run() leaves the state a step() loop leaves.

    Each program faults on iteration *n*.  With ``n = 1`` nothing is
    hot yet, so the fault is raised by step() on cold code; with
    ``n = _HOT`` the loop has been running as compiled blocks, and the
    unmapped load faults inside a closure.
    """

    CASES = {
        "unmapped_load": (_UNMAPPED_LOAD, MemoryFault, CpuConfig()),
        "clflush_privileged": (_CLFLUSH_EXIT, PrivilegeFault,
                               CpuConfig(clflush_privileged=True)),
        "shadow_stack": (_SHADOW_SMASH, ShadowStackViolation,
                         CpuConfig(shadow_stack=True)),
    }

    @staticmethod
    def _fault_state(process, fault):
        cpu = process.cpu
        return {
            "fault": (type(fault), str(fault)),
            "regs": list(cpu.state.regs),
            "pc": cpu.state.pc,
            "cycles": cpu.cycles,
            "events": cpu.pmu.read(),
        }

    def _run(self, case, n):
        source, fault_type, config = self.CASES[case]
        source = source.format(n=n)
        with engine_override("sb"):
            dispatched = _spawn(source, cpu_config=config)
            reference = _spawn(source, cpu_config=config)
        recorder = _StepRecorder(dispatched.cpu)
        with pytest.raises(fault_type) as from_run:
            dispatched.cpu.run()
        with pytest.raises(fault_type) as from_step:
            _run_stepwise(reference.cpu)
        assert (self._fault_state(dispatched, from_run.value)
                == self._fault_state(reference, from_step.value))
        return dispatched.cpu._sb.stats, recorder.raised

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cold_fault_matches_step(self, case):
        stats, raised_in_step = self._run(case, 1)
        assert stats["translated"] == 0
        assert raised_in_step

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hot_fault_matches_step(self, case):
        stats, raised_in_step = self._run(case, _HOT)
        assert stats["translated"] >= 1
        # The clflush sits past the loop's exit and ret ends every
        # block, so step() raises those two right after a block exit;
        # the load faults inside the closure.
        assert raised_in_step == (case != "unmapped_load")

    @staticmethod
    def _pair(source, config=None):
        with engine_override("sb"):
            return (_spawn(source, cpu_config=config),
                    _spawn(source, cpu_config=config))

    def test_rdcycle_in_block_matches_step(self):
        fast, reference = self._pair(_TIMED_LOAD.format(n=_HOT))
        recorder = _StepRecorder(fast.cpu, RDCYCLE)
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        # Registers hold every measured time and the last raw read.
        assert _snapshot(fast) == _snapshot(reference)
        assert recorder.in_blocks() > 0

    def test_mfence_in_block_matches_step(self):
        fast, reference = self._pair(_TIMED_LOAD.format(n=_HOT))
        recorder = _StepRecorder(fast.cpu, MFENCE)
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        events = fast.cpu.pmu.read()
        assert events["fence_stall_cycles"] > 0
        assert _snapshot(fast) == _snapshot(reference)
        assert recorder.in_blocks() > 0

    def test_clflush_of_code_in_block_takes_generation_exit(self):
        fast, reference = self._pair(
            _CODE_CLFLUSH_AT.format(n=_HOT, limit=_HOT + 50))
        cpu = fast.cpu
        recorder = _StepRecorder(cpu, CLFLUSH)
        flushes = []
        flush_code_line = cpu._flush_code_line

        def recording_flush(address):
            # (inside a block?, index of the next step() call)
            flushes.append((not recorder.active, len(recorder.pcs)))
            return flush_code_line(address)

        cpu._flush_code_line = recording_flush
        cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(fast) == _snapshot(reference)
        assert recorder.in_blocks() > 0
        assert flushes == [(True, flushes[0][1])]
        # The block returned right after the clflush: the dispatcher's
        # next instruction, on the dropped caches, is step() at
        # ``after``, not a stale rest of the body.
        assert recorder.pcs[flushes[0][1]] == fast.image.address_of("after")
        assert cpu._sb.stats["invalidations"] == 1

    def test_privileged_clflush_in_block_matches_step(self):
        # Kernel mode first, where clflush is allowed, so the loop's
        # block holds it; then user mode, where its check hands the
        # clflush to step(), which raises.
        source = _CLFLUSH_LOOP
        fast, reference = self._pair(
            source, CpuConfig(clflush_privileged=True))
        image = fast.image
        prologue = (image.address_of("loop")
                    - image.address_of("main")) // 8
        # Pause at the loop head, after 300 iterations.
        chunk = prologue + 300 * 5
        recorder = _StepRecorder(fast.cpu, CLFLUSH)
        for process in (fast, reference):
            process.cpu.kernel_mode = True
        fast.cpu.run(max_instructions=chunk)
        _run_stepwise(reference.cpu, max_instructions=chunk)
        assert fast.cpu.state.pc == image.address_of("loop")
        assert recorder.in_blocks() > 0
        side_exits = fast.cpu._sb.stats["side_exits"]
        stepped = len(recorder.pcs)
        for process in (fast, reference):
            process.cpu.kernel_mode = False
        with pytest.raises(PrivilegeFault) as from_run:
            fast.cpu.run()
        with pytest.raises(PrivilegeFault) as from_step:
            _run_stepwise(reference.cpu)
        assert (self._fault_state(fast, from_run.value)
                == self._fault_state(reference, from_step.value))
        # The loop's block left through the privilege check, and step()
        # raised on the clflush it was handed.
        assert fast.cpu._sb.stats["side_exits"] == side_exits + 1
        assert recorder.raised
        assert recorder.pcs[stepped:] == [image.address_of("flush")]


#: A counted loop whose forward branch is taken every 4th iteration;
#: on iteration {n} the load address moves 1 MiB past the data segment.
#: With n % 4 != 0 the branch falls through (its traced direction), so
#: the load faults inside a compiled block after the branch.
_BRANCH_THEN_FAULT = """
main:
    li   t0, 0
    li   s1, 0
    la   s0, buf
loop:
    addi t0, t0, 1
    slti t1, t0, {n}
    xori t1, t1, 1
    shli t1, t1, 20
    add  t2, s0, t1
    andi a1, t0, 3
    beq  a1, zero, skip
    addi s1, s1, 1
skip:
    lw   t3, 0(t2)
    jmp  loop
.data
buf: .word 7
"""


class TestPredictorInBlocks:
    """Compiled blocks predict and train the live BHT counters.

    Closures bind the BHT's counter list and batch the predictor's
    conditional tallies into their exits, so the list must survive
    ``BranchPredictor.reset()`` and the tallies must be exact on every
    exit a run can end on, the fault path included.
    """

    @staticmethod
    def _predictor_state(cpu):
        predictor = cpu.predictor
        return {
            "bht": list(predictor.bht._counters),
            "predictions": predictor.conditional_predictions,
            "mispredictions": predictor.conditional_mispredictions,
        }

    def test_reset_after_translation_matches_step(self):
        with engine_override("sb"):
            fast = _spawn(_BRANCHY)
            reference = _spawn(_BRANCHY)
        fast.cpu.run(max_instructions=1000)
        _run_stepwise(reference.cpu, max_instructions=1000)
        translated = fast.cpu._sb.stats["translated"]
        assert translated >= 1
        for process in (fast, reference):
            process.cpu.predictor.reset()
        fast.cpu.run()
        _run_stepwise(reference.cpu)
        assert fast.cpu.state.halted
        assert fast.cpu.pmu.read()["cond_branch_mispredictions"] > 0
        assert _snapshot(fast) == _snapshot(reference)
        assert (self._predictor_state(fast.cpu)
                == self._predictor_state(reference.cpu))
        # The blocks compiled before the reset kept running after it.
        assert fast.cpu._sb.stats["invalidations"] == 0

    def test_fault_after_branch_matches_step(self):
        source = _BRANCH_THEN_FAULT.format(n=_HOT + 1)
        with engine_override("sb"):
            fast = _spawn(source)
            reference = _spawn(source)
        recorder = _StepRecorder(fast.cpu)
        with pytest.raises(MemoryFault) as from_run:
            fast.cpu.run()
        with pytest.raises(MemoryFault) as from_step:
            _run_stepwise(reference.cpu)
        assert not recorder.raised         # raised inside a closure
        assert str(from_run.value) == str(from_step.value)
        assert _snapshot(fast) == _snapshot(reference)
        assert (self._predictor_state(fast.cpu)
                == self._predictor_state(reference.cpu))
