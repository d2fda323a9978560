"""Deterministic self-profiler: where do the simulator's cycles go?

The tracer (:mod:`repro.obs.tracer`) answers "what did the *simulated
machine* do"; this module answers "what does the *simulation* spend its
time on" — the input ROADMAP item 2's superblock translator needs.  A
:class:`Profiler` accumulates three views of one run:

* **per-subsystem buckets** — virtual cycles and event counts
  attributed to :data:`SUBSYSTEMS` (decode / execute / cache+TLB /
  branch / PMU / tracer / syscall), plus wall-clock seconds per bucket,
* **per-opcode tables** — frequency × cycles per ISA opcode,
* **basic-block hotness** — straight-line PC runs keyed by
  ``(start, end)`` with execution count, instruction count and cycles.

Determinism contract: everything except the ``wall`` section is a pure
function of (experiment, knobs, seed) — virtual cycles, counts and
block keys are identical whether a cell ran serially or on the warm
pool.  :func:`profile_bytes` is the canonical
serialisation minus wall clock, mirroring
:func:`repro.obs.ledger.manifest_bytes`; the cross-backend parity
tests hash it.

Gating mirrors the tracer exactly: cores bind :func:`current_profiler`
once at construction and divert to an instrumented loop only when the
ambient profiler is enabled *and* its config is active.  The disabled
default (:data:`NULL_PROFILER`) leaves the fast interpreter loop
untouched — a run with no profiler and a run with a fully-filtered one
(``ProfileConfig(subsystems=())``) execute the identical code path.
"""

import contextlib
import dataclasses
import json

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.opcodes import Opcode
from repro.isa.semantics import EVENTS, RDCYCLE, RDINSTRET, SYSCALL

#: Attribution buckets.  ``decode`` counts decode-cache misses (decode
#: costs no *virtual* cycles — its price is wall clock); ``tracer``
#: counts trace-record emissions during a profiled+traced run;
#: ``pmu`` is the cost of RDCYCLE/RDINSTRET reads; ``translate``
#: counts superblock translation attempts (wall-only, like decode:
#: compiling a block costs no virtual cycles); everything not
#: otherwise attributable lands in ``execute``.
SUBSYSTEMS = ("decode", "execute", "cache_tlb", "branch", "pmu",
              "tracer", "syscall", "translate")

PROFILE_FORMAT = "repro-prof/1"

#: Default cap on exported basic-block rows (the accumulators keep
#: every block; only the export is ranked and truncated).
DEFAULT_TOP_BLOCKS = 32

_BRANCH_OPS = frozenset(
    op for op, events in EVENTS.items() if "branch_instructions" in events
)
_CACHE_OPS = frozenset(
    op for op, events in EVENTS.items()
    if "clflush_instructions" in events or "mfence_instructions" in events
)
_PMU_OPS = frozenset((RDCYCLE, RDINSTRET))

_OP_NAMES = {int(op): op.name for op in Opcode}


@dataclasses.dataclass(frozen=True)
class ProfileConfig:
    """Picklable profiling knobs, shipped to pool workers per cell.

    ``subsystems`` is the enabled subset of :data:`SUBSYSTEMS` (``None``
    means all).  An *empty* tuple is the "enabled but fully filtered"
    state: the profiler object exists, but no core binds it, so the
    fast path is untouched — the profiling analogue of
    ``TraceConfig(categories=())``.  ``top_blocks`` bounds the exported
    basic-block ranking per cell.
    """

    subsystems: tuple = None
    top_blocks: int = DEFAULT_TOP_BLOCKS

    @property
    def active(self):
        """Whether any subsystem is collected at all."""
        return self.subsystems is None or len(self.subsystems) > 0

    def wants(self, subsystem):
        return self.subsystems is None or subsystem in self.subsystems


def parse_profile_filter(spec):
    """``--filter execute,branch`` -> validated subsystem tuple.

    ``None``/empty means "all subsystems".
    """
    if not spec:
        return None
    names = tuple(
        part.strip() for part in str(spec).split(",") if part.strip()
    )
    unknown = sorted(set(names) - set(SUBSYSTEMS))
    if unknown:
        raise ValueError(
            f"unknown profile subsystems {unknown}; "
            f"choose from {', '.join(SUBSYSTEMS)}"
        )
    return names


def _classify(op):
    """The subsystem that absorbs an instruction's residual cycles."""
    if op in _BRANCH_OPS:
        return "branch"
    if op == SYSCALL:
        return "syscall"
    if op in _PMU_OPS:
        return "pmu"
    if op in _CACHE_OPS:
        return "cache_tlb"
    return "execute"


class Profiler:
    """Recording profiler: one per experiment cell (or CLI run).

    Accumulators are shared across every core the cell builds; the
    per-core sequencing state (previous pc, open basic-block run)
    lives in the caller's loop locals (the in-order core) or in a
    :class:`ProfileCursor` (the out-of-order core), so two CPUs
    interleaving their quanta cannot corrupt each other's block runs.
    """

    enabled = True

    def __init__(self, config=None):
        self.config = config or ProfileConfig()
        self.instructions = 0
        #: subsystem -> [virtual cycles, event count]
        self.subsystems = {name: [0.0, 0] for name in SUBSYSTEMS}
        #: subsystem -> wall seconds (volatile; never compared)
        self.wall = {name: 0.0 for name in SUBSYSTEMS}
        #: opcode int -> [count, cycles]
        self.opcodes = {}
        #: (start pc, end pc) -> [count, instructions, cycles]
        self.blocks = {}

    # -- accounting (called from the cores' profiled loops) ----------

    def instruction(self, op, cycles, mem_stall, br_penalty, missed,
                    wall=0.0, emitted=0):
        """Attribute one retired instruction.

        *cycles* is the instruction's total virtual-cycle delta;
        *mem_stall* / *br_penalty* the memory-stall and mispredict
        counter deltas it caused (attributed to ``cache_tlb`` /
        ``branch``); the remainder goes to the bucket
        :func:`_classify` picks for *op*.  *missed* marks a
        decode-cache miss, *emitted* counts trace records the
        instruction emitted.
        """
        subs = self.subsystems
        self.instructions += 1
        acc = self.opcodes.get(op)
        if acc is None:
            acc = self.opcodes[op] = [0, 0.0]
        acc[0] += 1
        acc[1] += cycles
        if mem_stall > 0:
            bucket = subs["cache_tlb"]
            bucket[0] += mem_stall
            bucket[1] += 1
        if br_penalty > 0:
            bucket = subs["branch"]
            bucket[0] += br_penalty
            bucket[1] += 1
        residual = cycles - mem_stall - br_penalty
        if residual > 0:
            bucket = subs[_classify(op)]
            bucket[0] += residual
            bucket[1] += 1
        if missed:
            subs["decode"][1] += 1
        if emitted:
            subs["tracer"][1] += emitted
        if wall:
            # Wall attribution is coarse by design (and volatile by
            # contract): an instruction that emitted trace records
            # spent its wall in the tracer; a decode miss spent it
            # decoding; otherwise it goes where the cycles went.
            if emitted:
                self.wall["tracer"] += wall
            elif missed:
                self.wall["decode"] += wall
            else:
                self.wall[_classify(op)] += wall

    def translation(self, seconds):
        """Charge one superblock translation attempt.

        Events count attempts (deterministic: a pure function of the
        instruction stream and the heat threshold); the wall clock is
        the compile cost and stays in the volatile section.  Virtual
        cycles are zero by design — translation is simulator work, not
        simulated work.
        """
        self.subsystems["translate"][1] += 1
        self.wall["translate"] += seconds

    def block(self, start, end, instructions, cycles):
        """Close one straight-line PC run ``[start, end]``."""
        acc = self.blocks.get((start, end))
        if acc is None:
            acc = self.blocks[(start, end)] = [0, 0, 0.0]
        acc[0] += 1
        acc[1] += instructions
        acc[2] += cycles

    def add_wall(self, subsystem, seconds):
        """Charge run-level wall clock to one bucket (OoO granularity)."""
        self.wall[subsystem] += seconds

    def cursor(self):
        """Per-core cursor for loops with overlapped timing (OoO)."""
        return ProfileCursor(self)

    # -- export ------------------------------------------------------

    def snapshot(self):
        """JSON-safe export (see the module docstring for the schema).

        Subsystem filtering applies here: collection is all-or-nothing
        (the cost is identical), the *export* honours
        ``config.subsystems`` — and the opcode/block tables ride with
        the ``execute`` subsystem.
        """
        config = self.config
        wanted = [name for name in SUBSYSTEMS if config.wants(name)]
        subsystems = {
            name: {"cycles": round(self.subsystems[name][0], 6),
                   "events": self.subsystems[name][1]}
            for name in wanted
        }
        snapshot = {
            "format": PROFILE_FORMAT,
            "instructions": self.instructions,
            "cycles": round(sum(acc[0] for acc in
                                self.subsystems.values()), 6),
            "subsystems": subsystems,
        }
        if config.wants("execute"):
            snapshot["opcodes"] = {
                _OP_NAMES.get(op, f"op_{op:#04x}"): {
                    "count": acc[0], "cycles": round(acc[1], 6),
                }
                for op, acc in sorted(self.opcodes.items())
            }
            ranked = sorted(
                self.blocks.items(),
                key=lambda item: (-item[1][2], item[0]),
            )[:config.top_blocks]
            snapshot["blocks"] = [
                {"start": f"{start:#010x}", "end": f"{end:#010x}",
                 "count": acc[0], "instructions": acc[1],
                 "cycles": round(acc[2], 6)}
                for (start, end), acc in ranked
            ]
        snapshot["wall"] = {
            "total_s": round(sum(self.wall.values()), 6),
            "subsystems": {name: round(self.wall[name], 6)
                           for name in wanted if self.wall[name]},
        }
        return snapshot


class ProfileCursor:
    """Sequential accounting for cores that cannot time an instruction
    in isolation.

    The out-of-order core's dispatch loop overlaps instructions: the
    cost of instruction *i* is only known when *i+1* reaches dispatch
    (or the run drains).  ``note()`` therefore finalises the *previous*
    instruction with clock/counter deltas and parks the current one;
    ``finish()`` flushes the last instruction against the final commit
    clock, so ROB-drain cycles land on the instruction that caused
    them.
    """

    __slots__ = ("_prof", "_pc", "_op", "_clock", "_mem", "_br",
                 "_miss", "_pending_miss", "_blk_start", "_blk_end",
                 "_blk_instr", "_blk_cycles")

    def __init__(self, profiler):
        self._prof = profiler
        self._pc = -1
        self._op = -1
        self._clock = 0.0
        self._mem = 0
        self._br = 0
        self._miss = False
        self._pending_miss = False
        self._blk_start = -1
        self._blk_end = -1
        self._blk_instr = 0
        self._blk_cycles = 0.0

    def decode_miss(self):
        """Mark the instruction about to be noted as a decode miss."""
        self._pending_miss = True

    def _flush(self, clock, mem_stall, br_penalty, next_pc):
        prof = self._prof
        cycles = clock - self._clock
        if cycles < 0:
            cycles = 0.0
        prof.instruction(self._op, cycles, mem_stall - self._mem,
                         br_penalty - self._br, self._miss)
        self._blk_instr += 1
        self._blk_cycles += cycles
        self._blk_end = self._pc
        if next_pc is None or next_pc != self._pc + INSTRUCTION_SIZE:
            prof.block(self._blk_start, self._blk_end,
                       self._blk_instr, self._blk_cycles)
            self._blk_start = next_pc if next_pc is not None else -1
            self._blk_instr = 0
            self._blk_cycles = 0.0

    def note(self, pc, op, clock, mem_stall, br_penalty):
        """One instruction reached dispatch at *clock*."""
        if self._pc >= 0:
            self._flush(clock, mem_stall, br_penalty, pc)
        else:
            self._blk_start = pc
        self._pc = pc
        self._op = op
        self._clock = clock
        self._mem = mem_stall
        self._br = br_penalty
        self._miss = self._pending_miss
        self._pending_miss = False

    def finish(self, clock, mem_stall, br_penalty):
        """Flush the pending instruction against the final clock."""
        if self._pc >= 0:
            self._flush(clock, mem_stall, br_penalty, None)
            self._pc = -1


class NullProfiler:
    """The default no-op profiler; cores seeing it bind nothing."""

    enabled = False
    config = ProfileConfig(subsystems=())

    def instruction(self, *args, **kwargs):
        pass

    def block(self, *args, **kwargs):
        pass

    def translation(self, seconds):
        pass

    def add_wall(self, subsystem, seconds):
        pass

    def cursor(self):
        return None

    def snapshot(self):
        return {"format": PROFILE_FORMAT, "instructions": 0,
                "cycles": 0.0, "subsystems": {},
                "wall": {"total_s": 0.0, "subsystems": {}}}


#: Shared no-op profiler; the bottom of the ambient stack.
NULL_PROFILER = NullProfiler()

#: Ambient profiler stack, mirroring the tracer's: cores resolve their
#: profiler here at construction instead of threading it through every
#: signature.  Per-process (pool workers activate their own).
_ACTIVE = [NULL_PROFILER]


def current_profiler():
    """The innermost active profiler (:data:`NULL_PROFILER` when off)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def activate_profile(profiler):
    """Make *profiler* ambient for the duration of a ``with`` block."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


# -- merge / canonical bytes / collapsed stacks -----------------------

def strip_profile_volatile(snapshot):
    """A profile snapshot minus its wall-clock section."""
    return {key: value for key, value in snapshot.items()
            if key != "wall"}


def profile_bytes(snapshot):
    """Canonical serialisation of the deterministic profile sections.

    This is the identity the cross-backend parity tests hash: two
    profiles are "the same" iff their ``profile_bytes`` match.
    """
    return (json.dumps(strip_profile_volatile(snapshot), sort_keys=True,
                       indent=1) + "\n").encode("utf-8")


def merge_profiles(profiles):
    """Fold per-cell snapshots (``{key: snapshot}``) into one.

    Deterministic given deterministic inputs: cells merge in sorted-key
    order, buckets and opcode rows sum, block rows merge by
    ``(start, end)`` and re-rank.  Block rankings are *approximate* at
    the merge level — each cell exported only its own top rows — which
    is the right trade for bounded payloads.
    """
    merged = {
        "format": PROFILE_FORMAT,
        "instructions": 0,
        "cycles": 0.0,
        "subsystems": {},
        "opcodes": {},
        "blocks": [],
        "wall": {"total_s": 0.0, "subsystems": {}},
    }
    blocks = {}
    for key in sorted(profiles):
        snapshot = profiles[key] or {}
        merged["instructions"] += snapshot.get("instructions", 0)
        merged["cycles"] = round(
            merged["cycles"] + snapshot.get("cycles", 0.0), 6
        )
        for name, row in (snapshot.get("subsystems") or {}).items():
            acc = merged["subsystems"].setdefault(
                name, {"cycles": 0.0, "events": 0}
            )
            acc["cycles"] = round(acc["cycles"] + row["cycles"], 6)
            acc["events"] += row["events"]
        for name, row in (snapshot.get("opcodes") or {}).items():
            acc = merged["opcodes"].setdefault(
                name, {"count": 0, "cycles": 0.0}
            )
            acc["count"] += row["count"]
            acc["cycles"] = round(acc["cycles"] + row["cycles"], 6)
        for row in snapshot.get("blocks") or []:
            acc = blocks.setdefault(
                (row["start"], row["end"]),
                {"start": row["start"], "end": row["end"], "count": 0,
                 "instructions": 0, "cycles": 0.0},
            )
            acc["count"] += row["count"]
            acc["instructions"] += row["instructions"]
            acc["cycles"] = round(acc["cycles"] + row["cycles"], 6)
        wall = snapshot.get("wall") or {}
        merged["wall"]["total_s"] = round(
            merged["wall"]["total_s"] + wall.get("total_s", 0.0), 6
        )
        for name, seconds in (wall.get("subsystems") or {}).items():
            merged["wall"]["subsystems"][name] = round(
                merged["wall"]["subsystems"].get(name, 0.0) + seconds, 6
            )
    merged["blocks"] = sorted(
        blocks.values(),
        key=lambda row: (-row["cycles"], row["start"], row["end"]),
    )
    return merged


def collapsed_stack(profiles, by="subsystem"):
    """Flamegraph.pl-compatible collapsed-stack lines.

    One line per ``<cell>;<frame> <count>`` with virtual cycles as the
    count; *by* picks the leaf frame dimension (``subsystem``,
    ``opcode`` or ``block``).  Feed the output straight to
    ``flamegraph.pl`` (or any collapsed-stack viewer).
    """
    if by not in ("subsystem", "opcode", "block"):
        raise ValueError(
            f"unknown collapse dimension {by!r}; choose from "
            f"subsystem, opcode, block"
        )
    lines = []
    for key in sorted(profiles):
        snapshot = profiles[key] or {}
        root = str(key).replace(";", "_").replace(" ", "_")
        if by == "subsystem":
            for name in sorted(snapshot.get("subsystems") or {}):
                count = int(round(
                    snapshot["subsystems"][name]["cycles"]
                ))
                if count:
                    lines.append(f"{root};{name} {count}")
        elif by == "opcode":
            for name in sorted(snapshot.get("opcodes") or {}):
                count = int(round(snapshot["opcodes"][name]["cycles"]))
                if count:
                    lines.append(f"{root};{name} {count}")
        else:
            for row in snapshot.get("blocks") or []:
                count = int(round(row["cycles"]))
                if count:
                    lines.append(
                        f"{root};block_{row['start']}-{row['end']} "
                        f"{count}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")


def format_hotspots(merged, top=15):
    """Human tables: subsystems, top opcodes, top basic blocks."""
    from repro.core.reporting import format_table

    total = merged.get("cycles") or 0.0
    parts = []

    def share(cycles):
        return f"{100.0 * cycles / total:5.1f}%" if total else "    -"

    rows = [
        [name, f"{row['cycles']:.0f}", share(row["cycles"]),
         str(row["events"])]
        for name, row in sorted(
            (merged.get("subsystems") or {}).items(),
            key=lambda item: -item[1]["cycles"],
        )
    ]
    parts.append(format_table(
        ["subsystem", "cycles", "share", "events"], rows,
        title=(f"hotspots: {merged.get('instructions', 0)} instructions, "
               f"{total:.0f} virtual cycles"),
    ))
    opcodes = sorted(
        (merged.get("opcodes") or {}).items(),
        key=lambda item: -item[1]["cycles"],
    )[:top]
    if opcodes:
        rows = [[name, str(row["count"]), f"{row['cycles']:.0f}",
                 share(row["cycles"])] for name, row in opcodes]
        parts.append(format_table(
            ["opcode", "count", "cycles", "share"], rows,
            title=f"top {len(rows)} opcodes by cycles",
        ))
    blocks = (merged.get("blocks") or [])[:top]
    if blocks:
        rows = [
            [f"{row['start']}-{row['end']}", str(row["count"]),
             str(row["instructions"]), f"{row['cycles']:.0f}",
             share(row["cycles"])]
            for row in blocks
        ]
        parts.append(format_table(
            ["basic block", "runs", "instructions", "cycles", "share"],
            rows, title=f"top {len(rows)} basic blocks by cycles",
        ))
    return "\n\n".join(parts)
