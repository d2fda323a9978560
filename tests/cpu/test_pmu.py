"""PMU tests: the 56-event catalogue, the instruction-mix table and
sampling semantics."""

import pytest

from repro.cpu.pmu import EVENT_NAMES, NUM_EVENTS, PAPER_FEATURES
from repro.isa.opcodes import Opcode
from repro.isa.semantics import EVENTS
from repro.mem.memory import Memory
from repro.uarch import make_core
from tests.conftest import run_source

_ALU = {"alu"}
_MUL_DIV = {"alu", "mul_div"}
_COND = {"branch", "cond_branch"}

#: The mix events each opcode bumps beyond ``instructions``, written out
#: from the ISA reference (docs/ISA.md) by mnemonic and short event name,
#: independently of :data:`repro.isa.semantics.EVENTS`.
REFERENCE_EVENTS = {
    "NOP": set(), "HALT": set(),
    "ADD": _ALU, "SUB": _ALU, "MUL": _MUL_DIV, "DIV": _MUL_DIV,
    "MOD": _MUL_DIV, "AND": _ALU, "OR": _ALU, "XOR": _ALU, "SHL": _ALU,
    "SHR": _ALU, "SRA": _ALU, "SLT": _ALU, "SLTU": _ALU,
    "ADDI": _ALU, "MULI": _MUL_DIV, "ANDI": _ALU, "ORI": _ALU,
    "XORI": _ALU, "SHLI": _ALU, "SHRI": _ALU, "SRAI": _ALU, "SLTI": _ALU,
    "LI": _ALU, "MOV": _ALU, "RDCYCLE": _ALU, "RDINSTRET": _ALU,
    "LW": {"load"}, "LB": {"load"}, "SW": {"store"}, "SB": {"store"},
    "PUSH": {"stack"}, "POP": {"stack"},
    "BEQ": _COND, "BNE": _COND, "BLT": _COND, "BGE": _COND,
    "BLTU": _COND, "BGEU": _COND,
    "JMP": {"branch"}, "JMPR": {"branch", "indirect_jump"},
    "CALL": {"branch", "call"}, "CALLR": {"branch", "call", "indirect_jump"},
    "RET": {"branch", "ret"},
    "SYSCALL": {"syscall"}, "CLFLUSH": {"clflush"}, "MFENCE": {"mfence"},
}


class TestCatalogue:
    def test_exactly_56_events(self):
        assert NUM_EVENTS == 56
        assert len(set(EVENT_NAMES)) == 56

    def test_paper_features_present(self):
        for name in PAPER_FEATURES:
            assert name in EVENT_NAMES

    def test_paper_feature_list(self):
        assert PAPER_FEATURES == (
            "total_cache_misses",
            "total_cache_accesses",
            "branch_instructions",
            "branch_mispredictions",
            "instructions",
            "cycles",
        )


class TestMixTable:
    def test_events_match_reference(self):
        table = {
            Opcode(op).name: {event.removesuffix("_instructions")
                              for event in events}
            for op, events in EVENTS.items()
        }
        assert table == REFERENCE_EVENTS
        assert all(len(set(events)) == len(events)
                   for events in EVENTS.values())

    def test_every_mix_event_is_an_instruction_mix_pmu_event(self):
        mix = EVENT_NAMES[:EVENT_NAMES.index("cycles")]
        derived = {event for events in EVENTS.values() for event in events}
        assert derived == set(mix) - {"instructions", "branches_taken"}

    @pytest.mark.parametrize("uarch", ["inorder", "ooo"])
    def test_read_derives_mix_from_tally(self, uarch):
        cpu = make_core(uarch, Memory())
        tally = {"ADD": 3, "MULI": 2, "LW": 5, "BNE": 7, "CALLR": 1,
                 "RET": 4, "HALT": 1, "SYSCALL": 2}
        for name, count in tally.items():
            cpu.op_counts[Opcode[name]] = count
        cpu.counters["branches_taken"] = 6
        reading = cpu.pmu.read()
        expected = {}
        for name, count in tally.items():
            for event in REFERENCE_EVENTS[name]:
                expected[event] = expected.get(event, 0) + count
        for event in ("alu", "mul_div", "load", "store", "branch",
                      "cond_branch", "call", "ret", "indirect_jump",
                      "syscall", "clflush", "mfence", "stack"):
            assert reading[event + "_instructions"] == \
                expected.get(event, 0), event
        assert reading["instructions"] == sum(tally.values())
        assert reading["branches_taken"] == 6
        assert list(reading) == list(cpu.pmu.read())


class TestCounting:
    def _pmu_after(self, source):
        return run_source(source).pmu.read()

    def test_instruction_classes(self):
        snap = self._pmu_after("""
        main:
            add  t0, t1, t2
            mul  t0, t0, t0
            lw   t1, 0(sp)
            sw   t1, 0(sp)
            push t1
            pop  t1
            mfence
            halt
        """)
        assert snap["alu_instructions"] == 2
        assert snap["mul_div_instructions"] == 1
        assert snap["load_instructions"] == 1
        assert snap["store_instructions"] == 1
        assert snap["stack_instructions"] == 2
        assert snap["mfence_instructions"] == 1

    def test_branch_classes(self):
        snap = self._pmu_after("""
        main:
            beq  zero, zero, next
        next:
            call f
            jmp  over
        over:
            halt
        f:
            ret
        """)
        assert snap["cond_branch_instructions"] == 1
        assert snap["branches_taken"] == 1
        assert snap["call_instructions"] == 1
        assert snap["ret_instructions"] == 1
        assert snap["branch_instructions"] == 4  # beq, call, jmp, ret

    def test_clflush_counted(self):
        snap = self._pmu_after("""
        main:
            la t0, cell
            clflush 0(t0)
            halt
        .data
        cell: .word 0
        """)
        assert snap["clflush_instructions"] == 1

    def test_totals_consistent(self):
        snap = self._pmu_after("""
        main:
            li t0, 0
        loop:
            slti t1, t0, 50
            beq  t1, zero, done
            lw   t2, 0(sp)
            addi t0, t0, 1
            jmp  loop
        done:
            halt
        """)
        assert snap["total_cache_accesses"] == (
            snap["l1d_accesses"] + snap["l1i_accesses"]
        )
        assert snap["total_cache_misses"] == (
            snap["l1d_misses"] + snap["l1i_misses"]
        )
        assert snap["l1d_hits"] + snap["l1d_misses"] == snap["l1d_accesses"]
        assert snap["cycles"] > 0
        assert snap["instructions"] > 100


class TestDeltas:
    def test_delta_since_isolates_window(self):
        process = run_source("""
        main:
            li t0, 0
        loop:
            addi t0, t0, 1
            jmp loop
        """, max_instructions=100)
        pmu = process.cpu.pmu
        snapshot = pmu.snapshot()
        process.cpu.run(max_instructions=500)
        delta = pmu.delta_since(snapshot)
        assert delta["instructions"] == 500
        assert set(delta) == set(EVENT_NAMES)

    def test_ipc_positive(self):
        process = run_source("""
        main:
            li t0, 0
        loop:
            slti t1, t0, 200
            beq  t1, zero, done
            addi t0, t0, 1
            jmp  loop
        done:
            halt
        """)
        assert 0.1 < process.pmu.ipc <= 4.0
