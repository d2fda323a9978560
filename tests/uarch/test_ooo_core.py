"""The out-of-order core: architectural equivalence, ROB invariants,
and the transient covert channel.

The OoO core must be *architecturally* indistinguishable from the
in-order reference (same registers, memory effects, instruction counts,
program output for the same binary) while telling a genuinely different
*timing* story — and its speculation window must be bounded by reorder-
buffer depth, not by the in-order core's fixed ``spec_window``.
"""

import pytest

from repro.attack import SPECTRE_VARIANTS, SpectreConfig, build_spectre
from repro.kernel import System, build_binary
from repro.uarch import OooCore, OooParams
from repro.workloads import get_workload
from tests.conftest import SECRET, run_source

VARIANTS = sorted(SPECTRE_VARIANTS)

#: Short MiBench kernels, long enough to exercise branches, the divider,
#: memory traffic and syscalls on both cores.
KERNELS = (("basicmath", 30), ("sha", 4))


def _run_kernel(name, iterations, uarch, uarch_params=None):
    system = System(seed=7, uarch=uarch, uarch_params=uarch_params)
    workload = get_workload(name)
    system.install_binary("/bin/w", workload.build(iterations=iterations))
    process = system.spawn("/bin/w")
    process.run_to_completion()
    return process


@pytest.fixture(scope="module", params=KERNELS, ids=lambda k: k[0])
def kernel_pair(request):
    name, iterations = request.param
    return (name,
            _run_kernel(name, iterations, "inorder"),
            _run_kernel(name, iterations, "ooo"))


class TestArchitecturalEquivalence:
    def test_same_architectural_outcome(self, kernel_pair):
        name, inorder, ooo = kernel_pair
        assert ooo.exit_code == inorder.exit_code, name
        assert bytes(ooo.stdout) == bytes(inorder.stdout), name
        assert ooo.cpu.state.regs == inorder.cpu.state.regs, name

    def test_same_instruction_counts(self, kernel_pair):
        name, inorder, ooo = kernel_pair
        ooo_pmu = ooo.cpu.pmu.read()
        inorder_pmu = inorder.cpu.pmu.read()
        assert ooo_pmu["instructions"] == inorder_pmu["instructions"], name

    def test_committed_state_drained(self, kernel_pair):
        """After a run every uop has committed: the ROB is empty."""
        name, _, ooo = kernel_pair
        assert len(ooo.cpu.rob) == 0, name


class TestTimingDiverges:
    def test_ooo_overlaps_memory_latency(self):
        """sha is load/store heavy: dataflow scheduling must beat the
        in-order core's serial stall accounting by a wide margin."""
        name, iterations = "sha", 4
        inorder = _run_kernel(name, iterations, "inorder")
        ooo = _run_kernel(name, iterations, "ooo")
        assert ooo.cpu.cycles < inorder.cpu.cycles

    def test_cycles_deterministic(self):
        first = _run_kernel("basicmath", 10, "ooo")
        second = _run_kernel("basicmath", 10, "ooo")
        assert first.cpu.cycles == second.cpu.cycles
        assert first.cpu.pmu.read() == second.cpu.pmu.read()


SPEC_LOOP = """
main:
    li   t0, 0
loop:
    slti t1, t0, 6
    beq  t1, zero, done   ; mispredicts at loop exit
    addi t0, t0, 1
    jmp  loop
done:
    halt
"""

#: The loop exit mispredicts; only the wrong path (which sees t0 = 10)
#: takes the branch into the endless spin loop.
WRONG_PATH_SPIN = """
main:
    li   t0, 0
again:
    addi t0, t0, 1
    slti t1, t0, 9
    bne  t1, zero, again
    slti t1, t0, 10
    beq  t1, zero, spin
    halt
spin:
    jmp  spin
"""


def _run_ooo(source, uarch_params=None, commit_log=None,
             max_instructions=5_000_000):
    system = System(seed=9, target_data=SECRET, uarch="ooo",
                    uarch_params=uarch_params)
    program = build_binary("testprog", source)
    system.install_binary("/bin/testprog", program)
    process = system.spawn("/bin/testprog")
    if commit_log is not None:
        process.cpu.commit_log = commit_log
    process.run_to_completion(max_instructions=max_instructions)
    return process


class TestRobInvariants:
    def test_commit_is_in_order(self):
        log = []
        process = _run_ooo(SPEC_LOOP, commit_log=log)
        assert process.cpu.pmu.read()["spec_instructions"] > 0
        assert log, "nothing committed"
        seqs = [seq for seq, _pc in log]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_wrong_path_fits_the_free_rob_slots(self, monkeypatch):
        """Wrong-path uops take no ROB entries: each squash executes at
        most as many uops as the ROB had free slots at the branch, which
        itself holds one, and the squash leaves the occupancy as it was."""
        squashes = []
        recover = OooCore._recover

        def spy(core, *args):
            rob = core.rob
            occupancy = len(rob)
            assert 1 <= occupancy <= rob.depth
            assert rob.free_slots() == rob.depth - occupancy
            before = core.pmu.counters["spec_instructions"]
            result = recover(core, *args)
            squashes.append((rob.depth - occupancy,
                             core.pmu.counters["spec_instructions"] - before))
            assert len(rob) == occupancy
            return result

        monkeypatch.setattr(OooCore, "_recover", spy)
        for depth in (1, 8, 48):
            _run_ooo(WRONG_PATH_SPIN,
                     uarch_params=OooParams(rob_depth=depth))
        assert squashes
        assert all(spec <= free for free, spec in squashes), squashes
        # The endless wrong path runs until the ROB budget stops it.
        assert any(0 < spec == free for free, spec in squashes), squashes

    def test_rob_drains_at_halt(self):
        process = _run_ooo(SPEC_LOOP)
        assert len(process.cpu.rob) == 0

    def test_every_wrong_path_uop_is_squashed(self):
        snap = _run_ooo(SPEC_LOOP).pmu.read()
        assert snap["spec_instructions"] > 0
        assert snap["squashed_instructions"] == snap["spec_instructions"]


#: The PMU events both cores count the same way on the committed path.
#: The ``dtlb_*`` events are left out: they include wrong-path accesses,
#: which differ between the cores.
COMMITTED_EVENTS = (
    "instructions", "alu_instructions", "load_instructions",
    "store_instructions", "stack_instructions", "call_instructions",
    "ret_instructions", "branch_instructions", "cond_branch_instructions",
    "cond_branch_mispredictions",
)


class TestMidRunTallies:
    """The OoO loop batches its tallies in locals; every exit folds
    them in, so a run sliced anywhere reads the same committed counts
    as the in-order core after every slice."""

    @staticmethod
    def _spawn_pair(program):
        pair = []
        for uarch in ("inorder", "ooo"):
            system = System(seed=7, uarch=uarch)
            system.install_binary("/bin/w", program)
            pair.append(system.spawn("/bin/w"))
        return pair

    @pytest.mark.parametrize("slice_size", (1, 7, 1000))
    @pytest.mark.parametrize("name,iterations",
                             (("sha", 1), ("basicmath", 30), ("qsort", 1)))
    def test_events_agree_after_every_slice(self, name, iterations,
                                            slice_size):
        inorder, ooo = self._spawn_pair(
            get_workload(name).build(iterations=iterations))
        while inorder.alive or ooo.alive:
            assert inorder.alive and ooo.alive
            inorder.step_quantum(slice_size)
            ooo.step_quantum(slice_size)
            expected, got = inorder.pmu.read(), ooo.pmu.read()
            assert [got[e] for e in COMMITTED_EVENTS] == \
                [expected[e] for e in COMMITTED_EVENTS], got["instructions"]
        assert ooo.exit_code == inorder.exit_code

    def test_events_agree_inside_the_syscall_handler(self):
        """The tallies are folded in before the handler runs, so a
        handler reading the PMU sees the committed counts."""
        seen = []
        for process in self._spawn_pair(build_binary("calls", SYSCALL_LOOP)):
            reads = []
            seen.append(reads)

            def spy(cpu, handler=process.cpu.syscall_handler, reads=reads):
                events = cpu.pmu.read()
                reads.append([events[e] for e in COMMITTED_EVENTS])
                handler(cpu)

            process.cpu.syscall_handler = spy
            process.run_to_completion()
        inorder, ooo = seen
        assert len(ooo) == 7 and ooo == inorder

    def test_wrong_path_rdinstret_reads_the_committed_count(self):
        """The wrong path turns ``rdinstret`` into a probe line: the one
        it fills is picked by the committed count at the branch, one
        less than the committed ``rdinstret`` right after it."""
        process = _run_ooo(RDINSTRET_PROBE)
        committed = process.exit_code   # the count after the branch
        probe = process.image.address_of("probe")
        filled = [line for line in range(64) if
                  process.cpu.caches.probe_data(probe + 64 * line)]
        assert filled == [(committed - 1) & 63]
        assert process.pmu.read()["spec_cache_fills"] > 0


#: Loads, stores and a mispredicted loop exit between syscalls.
SYSCALL_LOOP = """
main:
    li   a2, 0
    la   t1, cells
loop:
    lw   t2, 0(t1)
    addi t2, t2, 1
    sw   t2, 4(t1)
    call libc_getpid
    addi a2, a2, 1
    slti t0, a2, 6
    bne  t0, zero, loop
    li   a0, 0
    call libc_exit
.data
cells: .word 7, 0
"""

#: ``victim`` is trained taken into ``gadget``; its last call falls
#: through, so the wrong path runs the gadget, whose load address is
#: the instruction count ``rdinstret`` reads there.  The probe lines the
#: architectural training runs filled are flushed before that call.
RDINSTRET_PROBE = """
main:
    li   a2, 6
train:
    beq  a2, zero, flush
    li   a0, 1
    call victim
    addi a2, a2, -1
    jmp  train
flush:
    la   t1, probe
    li   t2, 64
flush_line:
    clflush 0(t1)
    addi t1, t1, 64
    addi t2, t2, -1
    bne  t2, zero, flush_line
    mfence
    li   a0, 0
    call victim
    andi a0, a1, 255
    call libc_exit

victim:
    bne  a0, zero, gadget
    rdinstret a1
    ret
gadget:
    rdinstret t0
    andi t0, t0, 63
    shli t0, t0, 6
    la   t1, probe
    add  t1, t1, t0
    lw   t2, 0(t1)
    ret

.data
    .align 6
probe: .space 4096
"""


class TestSquash:
    def test_wrong_path_stores_squashed(self):
        process = _run_ooo("""
        main:
            li   t0, 0
        mistrain:
            slti t1, t0, 4
            beq  t1, zero, strike
            addi t0, t0, 1
            jmp  mistrain
        strike:
            li   t2, 5
            slti t1, t0, 4
            bne  t1, zero, poison     ; never architecturally taken
            jmp  check
        poison:
            la   t3, cell
            li   t1, 666
            sw   t1, 0(t3)
            jmp  check
        check:
            la   t3, cell
            lw   a0, 0(t3)
            call libc_exit
        .data
        cell: .word 42
        """)
        assert process.exit_code == 42  # the poison store never commits

    def test_wrong_path_register_writes_squashed(self):
        """After the mispredicted loop exit the wrong path would run
        ``addi t0``: the committed value must be the trained count."""
        process = _run_ooo("""
        main:
            li   t0, 0
        loop:
            slti t1, t0, 6
            beq  t1, zero, done
            addi t0, t0, 1
            jmp  loop
        done:
            mov  a0, t0
            call libc_exit
        """)
        assert process.exit_code == 6


PROBE_SOURCE = r"""
main:
    li   a2, 6
train:
    beq  a2, zero, flush
    li   a0, 1
    call victim
    addi a2, a2, -1
    jmp  train
flush:
    la   t1, probe
    clflush 0(t1)
    mfence
    li   a0, 1000          ; out of bounds
    call victim
    la   t1, probe
    mfence
    rdcycle gp
    lw   t2, 0(t1)
    rdcycle lr
    sub  a0, lr, gp
    call libc_exit

victim:
    la   t0, size
    lw   t0, 0(t0)
    bgeu a0, t0, victim_ret
    la   t1, probe         ; wrong-path load fills the probe line
    lw   t2, 0(t1)
victim_ret:
    ret

.data
size: .word 8
    .align 6
probe: .word 0
"""


class TestCovertChannel:
    def test_wrong_path_fill_persists(self):
        process = _run_ooo(PROBE_SOURCE)
        latency = process.exit_code
        assert latency < 50, (
            f"probe reload took {latency} cycles; the speculative fill "
            f"did not persist"
        )
        assert process.pmu.read()["spec_cache_fills"] > 0

    def test_rob_depth_one_disables_the_channel(self):
        """With a single ROB slot there are no free slots at the branch
        — the transient window is gone, exactly like spec_window=0 on
        the in-order core."""
        process = _run_ooo(PROBE_SOURCE,
                           uarch_params=OooParams(rob_depth=1))
        assert process.exit_code > 50


class TestSpectreOnOoo:
    def _leak(self, variant, uarch_params=None):
        system = System(seed=21, target_data=SECRET, uarch="ooo",
                        uarch_params=uarch_params)
        config = SpectreConfig(secret_length=len(SECRET), repeats=1)
        system.install_binary("/bin/a", build_spectre(variant, config))
        process = system.spawn("/bin/a")
        process.run_to_completion(max_instructions=60_000_000)
        return bytes(process.stdout), process

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_full_secret_recovered(self, variant):
        leaked, process = self._leak(variant)
        assert leaked == SECRET, (variant, leaked, process.fault)

    def test_rob_depth_is_the_speculation_budget(self):
        leaked, _ = self._leak("v1", uarch_params=OooParams(rob_depth=1))
        assert leaked != SECRET


class TestPipelineCounters:
    """The ``ooo.*`` telemetry: cheap counters behind the metrics
    registry, spans behind their own trace categories."""

    def _traced(self, source, categories=None, **kwargs):
        from repro.obs.tracer import TraceConfig, Tracer, activate

        tracer = Tracer(TraceConfig(categories=categories))
        with activate(tracer):
            process = _run_ooo(source, **kwargs)
        tracer.finalize()
        return process, tracer

    def test_rob_occupancy_histogram_and_squash_counters(self):
        _, tracer = self._traced(SPEC_LOOP)
        snapshot = tracer.metrics.snapshot()
        hist = snapshot["histograms"]["ooo.rob.occupancy"]
        assert hist["count"] > 0
        assert sum(hist["buckets"]) == hist["count"]
        counters = snapshot["counters"]
        assert counters["ooo.squashes"] > 0
        assert counters["ooo.wrong_path_uops"] > 0
        # The squash counter agrees with the PMU's own accounting.
        process, tracer = self._traced(SPEC_LOOP)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["ooo.wrong_path_uops"] == \
            process.cpu.pmu.read()["squashed_instructions"]

    def test_spec_window_depth_observed_per_squash(self):
        _, tracer = self._traced(SPEC_LOOP)
        snapshot = tracer.metrics.snapshot()
        window = snapshot["histograms"]["ooo.spec.window"]
        assert window["count"] == \
            snapshot["counters"]["ooo.squashes"]

    def test_ooo_spans_only_with_their_categories(self):
        _, full = self._traced(SPEC_LOOP)
        squashes = [r for r in full.records
                    if r["cat"] == "ooo.squash"]
        assert squashes, "no squash spans on a mispredicting loop"
        for record in squashes:
            assert record["ph"] == "X"
            assert record["args"]["uops"] > 0
        # Filtered down to cpu-only: counters still collected, spans
        # suppressed — the cheap/chatty split the categories exist for.
        _, filtered = self._traced(SPEC_LOOP, categories=("cpu",))
        assert not [r for r in filtered.records
                    if r["cat"].startswith("ooo.")]
        counters = filtered.metrics.snapshot()["counters"]
        assert counters["ooo.squashes"] > 0

    def test_dispatch_stalls_counted_when_rob_saturates(self):
        _, tracer = self._traced(SPEC_LOOP,
                                 uarch_params=OooParams(rob_depth=2))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("ooo.dispatch_stalls", 0) > 0
        stalls = [r for r in tracer.records
                  if r["name"] == "ooo.dispatch.stall"]
        assert stalls
        assert all(r["args"]["rob"] >= 2 for r in stalls)

    def test_untraced_run_is_bitwise_unchanged(self):
        plain = _run_ooo(SPEC_LOOP)
        traced, _ = self._traced(SPEC_LOOP)
        assert traced.cpu.cycles == plain.cpu.cycles
        assert traced.cpu.pmu.read() == plain.cpu.pmu.read()
        assert plain.cpu._metrics is None


class TestSpecCountersMatchInOrder:
    def test_squash_accounting_identical_semantics(self):
        """Both cores account the same speculation events for the same
        program; the *counts* may differ (window shape differs), but the
        squash invariant holds on each."""
        reference = run_source(SPEC_LOOP, target_data=SECRET).pmu.read()
        ooo = _run_ooo(SPEC_LOOP).pmu.read()
        for snap in (reference, ooo):
            assert snap["spec_instructions"] > 0
            assert snap["squashed_instructions"] == \
                snap["spec_instructions"]
