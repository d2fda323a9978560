"""The superblock translation engine vs ``step()``, bit for bit.

The ``sb`` engine compiles hot decoded runs into Python closures and
dispatches them from a per-PC cache (:mod:`repro.cpu.superblock`).
These tests pin the two contracts that make that safe:

* **Equivalence** — a superblock run leaves *identical* observable
  state to the step reference (registers, pc, virtual cycles, all PMU
  events, cache/TLB counters, process output) across every Spectre
  variant, chunked pause/resume boundaries, watchdog trips, and traced
  runs, on both microarchitectures.
* **Invalidation** — self-modifying stores and ``clflush`` into code
  drop resident superblocks before any stale closure can execute; the
  refilled blocks are compiled from the *new* bytes.
"""

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.core.resilience.watchdog import Watchdog
from repro.cpu import engine_override
from repro.cpu.superblock import SuperblockEngine
from repro.errors import BudgetExceededError
from repro.kernel import System, build_binary
from repro.mem.memory import PERM_W
from repro.obs.tracer import TraceConfig, Tracer, activate

SECRET = b"SB!"

VARIANTS = ("v1", "btb", "rsb", "sbo")

#: Branchy enough to mispredict, hot enough to translate.
_HOT_LOOP = """
main:
    li   t0, 0
    li   s0, 7
    li   s1, 0
loop:
    slti t1, t0, 400
    beq  t1, zero, done
    muli s0, s0, 1103515245
    addi s0, s0, 12345
    andi t2, s0, 7
    beq  t2, zero, skip
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

#: Runs a hot inner loop, then overwrites one of its instructions (the
#: word at ``patch_me``) with the ``donor`` encoding and runs it again.
#: A stale superblock executing even one post-write iteration changes
#: the accumulator, so the exit code convicts it.
_SELF_MODIFYING = """
main:
    li   s0, 0          ; acc
    li   s1, 0          ; outer trip count
outer:
    li   t0, 40         ; inner loop: hot, gets translated
inner:
    addi t0, t0, -1
patch_me:
    addi s0, s0, 1      ; overwritten with "addi s0, s0, 5"
    bne  t0, zero, inner
    addi s1, s1, 1
    slti t1, s1, 2
    beq  t1, zero, done
    la   t2, donor
    lw   t3, 4(t2)      ; the imm word of the 8-byte encoding
    la   a2, patch_me
    sw   t3, 4(a2)      ; SMC: lands in an executable segment
    jmp  outer
done:
    andi a0, s0, 0xFF   ; 40*1 + 40*5 = 240
    call libc_exit
donor:
    addi s0, s0, 5      ; never executed, only copied
"""

#: Same hot loop shape, but the mid-loop disturbance is a ``clflush``
#: of the loop's own code line — architecturally a no-op, yet it must
#: drop the resident superblock (translation caches track the I-cache).
_CODE_CLFLUSH = """
main:
    li   s0, 0
    li   s1, 0
outer:
    li   t0, 40
inner:
    addi t0, t0, -1
    addi s0, s0, 1
    bne  t0, zero, inner
    addi s1, s1, 1
    slti t1, s1, 3
    beq  t1, zero, done
    la   t2, inner
    clflush 0(t2)
    jmp  outer
done:
    andi a0, s0, 0xFF   ; 3*40 = 120
    call libc_exit
"""

#: A forward branch taken 7 times in 8: its BHT counter predicts taken,
#: so the trace follows it to ``skip`` although its offset is positive.
_MOSTLY_TAKEN = """
main:
    li   t0, 0
    li   s1, 0
loop:
    addi t0, t0, 1
    andi t1, t0, 7
    bne  t1, zero, skip
    addi s1, s1, 1      ; every 8th iteration
skip:
    slti t2, t0, {n}
    bne  t2, zero, loop
    andi a0, s1, 0xFF
    call libc_exit
"""


def _spawn(source=None, program=None, seed=9, target_data=None,
           uarch="inorder"):
    system = System(seed=seed, target_data=target_data, uarch=uarch)
    program = program or build_binary("testprog", source)
    system.install_binary("/bin/testprog", program)
    return system.spawn("/bin/testprog")


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


def _allow_smc(process):
    """Drop W^X on the text segment (the loader maps it R-X).

    The self-modifying tests need the store itself to execute on the
    modelled CPU so the code-write listener path is what invalidates —
    not a host-side patch.
    """
    process.cpu.memory.segment_by_name("text").perms |= PERM_W


def _run_to_halt(process):
    while not process.cpu.state.halted:
        process.cpu.run()
    return _snapshot(process)


class TestSuperblockVariantParity:
    """run() under ``sb`` ≡ run() under ``step``, all four variants."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_attack_identical_state_inorder(self, variant):
        program = build_spectre(
            variant, SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        with engine_override("sb"):
            sb = _spawn(program=program, target_data=SECRET)
            sb.cpu.run()
        with engine_override("step"):
            reference = _spawn(program=program, target_data=SECRET)
            reference.cpu.run()
        assert _snapshot(sb) == _snapshot(reference)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_attack_identical_state_ooo(self, variant):
        # The Tomasulo core ignores the engine knob entirely; ``sb``
        # mode must be transparent (same contract, same state).
        program = build_spectre(
            variant, SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        with engine_override("sb"):
            sb = _spawn(program=program, target_data=SECRET, uarch="ooo")
            snap_sb = _run_to_halt(sb)
        with engine_override("step"):
            reference = _spawn(program=program, target_data=SECRET,
                               uarch="ooo")
            snap_ref = _run_to_halt(reference)
        assert snap_sb == snap_ref

    def test_blocks_actually_ran(self):
        # Guard against the parity tests passing vacuously because
        # translation never kicked in.
        with engine_override("sb"):
            process = _spawn(_HOT_LOOP)
            process.cpu.run()
        engine = process.cpu._sb
        assert engine is not None
        assert engine.stats["translated"] > 0
        assert engine.stats["instructions_translated"] > 0


class TestPredictorDirectedTraces:
    """Collection follows each branch the way the BHT predicts it."""

    ITERATIONS = 400

    def test_side_exits_only_on_not_taken_iterations(self):
        source = _MOSTLY_TAKEN.format(n=self.ITERATIONS)
        with engine_override("sb"):
            sb = _spawn(source)
            sb.cpu.run()
        with engine_override("step"):
            reference = _spawn(source)
            reference.cpu.run()
        assert _snapshot(sb) == _snapshot(reference)
        # The loop entry turns hot on its HOT_THRESHOLD-th iteration,
        # and every later iteration runs in a block whose trace takes
        # the forward branch.  Only an iteration that falls through to
        # ``addi s1`` leaves its block, and so does the loop's own
        # final exit.
        first_compiled = SuperblockEngine.HOT_THRESHOLD
        not_taken = sum(1 for i in range(first_compiled,
                                         self.ITERATIONS + 1)
                        if i % 8 == 0)
        assert sb.cpu._sb.stats["side_exits"] == not_taken + 1


class TestSuperblockTracedParity:
    def test_cpu_tracing_forces_step_parity(self):
        # A cpu-category tracer pushes run() onto the traced step loop;
        # the engine knob must not perturb state or the trace itself.
        records = {}
        for mode in ("sb", "step"):
            tracer = Tracer(TraceConfig(categories=("cpu", "kernel")))
            with engine_override(mode), activate(tracer):
                process = _spawn(_HOT_LOOP)
                process.cpu.run()
            records[mode] = (_snapshot(process), tracer.records)
        assert records["sb"] == records["step"]

    def test_cache_tracing_forces_step_parity(self):
        # A bound cache channel also pushes run() onto the traced step
        # loop (superblocks never engage — their batched counter
        # updates cannot emit per-access records), and the cache trace
        # must be identical across engine modes.
        results = {}
        for mode in ("sb", "step"):
            tracer = Tracer(TraceConfig(categories=("cache",)))
            with engine_override(mode), activate(tracer):
                process = _spawn(_HOT_LOOP)
                process.cpu.run()
            results[mode] = (_snapshot(process), tracer.records)
            if mode == "sb":
                assert process.cpu._sb is None
        assert results["sb"] == results["step"]


class TestSuperblockPauseAndBudget:
    def test_chunked_pauses_deoptimize_at_same_points(self):
        # Blocks never straddle a chunk boundary: when the remaining
        # budget is smaller than a resident block, run() single-steps.
        with engine_override("sb"):
            sb = _spawn(_HOT_LOOP)
        with engine_override("step"):
            reference = _spawn(_HOT_LOOP)
        for chunk in (1, 7, 193, 1000, 50_000):
            sb.cpu.run(max_instructions=chunk)
            reference.cpu.run(max_instructions=chunk)
            assert _snapshot(sb) == _snapshot(reference)

    def test_watchdog_trip_leaves_synced_state(self):
        with engine_override("sb"):
            sb = _spawn(_HOT_LOOP)
        with engine_override("step"):
            reference = _spawn(_HOT_LOOP)
        sb.cpu.watchdog = Watchdog(2048, label="sb")
        reference.cpu.watchdog = Watchdog(2048, label="ref")
        with pytest.raises(BudgetExceededError):
            sb.cpu.run()
        with pytest.raises(BudgetExceededError):
            reference.cpu.run()
        assert _snapshot(sb) == _snapshot(reference)


class TestSuperblockInvalidation:
    """Satellite 2: flush→refill under SMC and clflush-into-code."""

    def test_self_modifying_store_never_runs_stale_closure(self):
        with engine_override("sb"):
            process = _spawn(_SELF_MODIFYING)
            _allow_smc(process)
            process.run_to_completion()
        engine = process.cpu._sb
        # The inner loop really was compiled before the store landed...
        assert engine.stats["translated"] > 0
        assert engine.stats["code_writes"] == 1
        assert engine.stats["invalidations"] >= 1
        assert engine.gen[0] >= 1
        # ...and no stale closure executed a pre-patch iteration: the
        # second pass of 40 iterations ran the *new* instruction.
        assert process.exit_code == 240

    def test_self_modifying_store_matches_step_reference(self):
        with engine_override("sb"):
            sb = _spawn(_SELF_MODIFYING)
            _allow_smc(sb)
            sb.cpu.run()
        with engine_override("step"):
            reference = _spawn(_SELF_MODIFYING)
            _allow_smc(reference)
            reference.cpu.run()
        assert _snapshot(sb) == _snapshot(reference)

    def test_clflush_into_code_drops_and_refills_blocks(self):
        with engine_override("sb"):
            process = _spawn(_CODE_CLFLUSH)
            process.run_to_completion()
        engine = process.cpu._sb
        # Flushed at least once mid-run, then re-translated from the
        # (unchanged) bytes: translations outnumber a single warm-up.
        assert engine.stats["invalidations"] >= 2
        assert engine.stats["translated"] >= 2
        assert process.exit_code == 120

    def test_clflush_into_code_matches_step_reference(self):
        with engine_override("sb"):
            sb = _spawn(_CODE_CLFLUSH)
            sb.cpu.run()
        with engine_override("step"):
            reference = _spawn(_CODE_CLFLUSH)
            reference.cpu.run()
        assert _snapshot(sb) == _snapshot(reference)

    def test_execve_flushes_resident_blocks(self):
        system = System(seed=3)
        caller = build_binary("caller", """
        main:
            li   t0, 200
        warm:
            addi t0, t0, -1
            bne  t0, zero, warm
            la   a0, path
            li   a1, 0
            call libc_execve
            li   a0, 1
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
        with engine_override("sb"):
            process = system.spawn("/bin/caller")
            process.run_to_completion()
        assert process.exit_code == 42
        engine = process.cpu._sb
        assert engine.stats["translated"] > 0
        assert engine.stats["invalidations"] >= 1
