"""Performance monitoring unit: the 56 hardware performance events.

The paper records 56 events offline and lets the HID select 1..16 of
them (Fig. 4); the six headline features are::

    total_cache_misses, total_cache_accesses, branch_instructions,
    branch_mispredictions, instructions, cycles

The PMU composes its reading from four places:

* each core's per-opcode retire tally (``op_counts``, :func:`op_tally`),
  from which :data:`repro.isa.semantics.EVENTS` derives ``instructions``
  and the 13 other instruction-mix events (``alu_instructions`` ...
  ``stack_instructions``, all but ``branches_taken``);
* the events a core counts directly (:func:`direct_counters`): the ones
  no table can give, ``branches_taken``, the stall and penalty cycles,
  ``spec_*`` and ``squashed_instructions``;
* the cache hierarchy's per-level stats;
* the predictor and TLB structures.

:meth:`read` returns the full 56-event dict; :meth:`snapshot`/
:meth:`delta_since` implement the sampling the profiler uses.
"""

from repro.isa.semantics import EVENTS

# The canonical, ordered catalogue of the 56 events.
EVENT_NAMES = (
    # --- instruction mix (15) ---
    "instructions",
    "alu_instructions",
    "mul_div_instructions",
    "load_instructions",
    "store_instructions",
    "branch_instructions",
    "cond_branch_instructions",
    "branches_taken",
    "call_instructions",
    "ret_instructions",
    "indirect_jump_instructions",
    "syscall_instructions",
    "clflush_instructions",
    "mfence_instructions",
    "stack_instructions",
    # --- cycles & stalls (4) ---
    "cycles",
    "memory_stall_cycles",
    "mispredict_penalty_cycles",
    "fence_stall_cycles",
    # --- branch prediction (7) ---
    "branch_mispredictions",
    "cond_branch_mispredictions",
    "return_mispredictions",
    "indirect_mispredictions",
    "btb_hits",
    "btb_misses",
    "rsb_overflows",
    # --- L1 data cache (9) ---
    "l1d_accesses",
    "l1d_hits",
    "l1d_misses",
    "l1d_read_accesses",
    "l1d_read_misses",
    "l1d_write_accesses",
    "l1d_write_misses",
    "l1d_evictions",
    "l1d_writebacks",
    # --- L1 instruction cache (3) ---
    "l1i_accesses",
    "l1i_hits",
    "l1i_misses",
    # --- unified L2 (5) ---
    "l2_accesses",
    "l2_hits",
    "l2_misses",
    "l2_evictions",
    "l2_writebacks",
    # --- hierarchy totals (3) ---
    "total_cache_accesses",
    "total_cache_hits",
    "total_cache_misses",
    # --- TLBs (6) ---
    "dtlb_accesses",
    "dtlb_hits",
    "dtlb_misses",
    "itlb_accesses",
    "itlb_hits",
    "itlb_misses",
    # --- speculation (4) ---
    "spec_instructions",
    "spec_loads",
    "spec_cache_fills",
    "squashed_instructions",
)

NUM_EVENTS = len(EVENT_NAMES)
assert NUM_EVENTS == 56, f"expected 56 PMU events, have {NUM_EVENTS}"

#: The six features the paper trains its HID on (Section III-A).
PAPER_FEATURES = (
    "total_cache_misses",
    "total_cache_accesses",
    "branch_instructions",
    "branch_mispredictions",
    "instructions",
    "cycles",
)

#: Events a core counts itself: the ones no table can give.
_DIRECT_EVENTS = (
    "branches_taken",
    "memory_stall_cycles",
    "mispredict_penalty_cycles",
    "fence_stall_cycles",
    "spec_instructions",
    "spec_loads",
    "spec_cache_fills",
    "squashed_instructions",
)

#: The events :meth:`Pmu.read` takes from the core, in reading order:
#: the 15 instruction-mix events (all derived from the tally but
#: ``branches_taken``), then the other direct events.
_COUNTED = EVENT_NAMES[:15] + _DIRECT_EVENTS[1:]


def direct_counters():
    """A fresh, zeroed dict of the events a core counts directly."""
    return dict.fromkeys(_DIRECT_EVENTS, 0)


def op_tally():
    """A fresh, zeroed retire tally: one count per opcode byte."""
    return [0] * 256


class Pmu:
    """Composes the 56-event reading for one CPU.

    The core owns its ``counters`` dict (:func:`direct_counters`) and
    its ``op_counts`` tally (:func:`op_tally`), and builds a ``Pmu`` on
    each ``core.pmu`` access.  The view holds the core, not the other
    way round, so a reading keeps what it reads alive and the core has
    no back-edge to free through the cyclic collector.
    """

    def __init__(self, cpu):
        self._cpu = cpu
        self.counters = cpu.counters

    def read(self):
        """Return the current cumulative value of all 56 events."""
        cpu = self._cpu
        caches = cpu.caches
        predictor = cpu.predictor
        l1d, l1i, l2 = caches.l1d.stats, caches.l1i.stats, caches.l2.stats
        values = dict.fromkeys(_COUNTED, 0)
        values.update(self.counters)
        tally = cpu.op_counts
        values["instructions"] = sum(tally)
        for op, events in EVENTS.items():
            count = tally[op]
            if count:
                for event in events:
                    values[event] += count
        values["cycles"] = int(cpu.cycles)
        values["branch_mispredictions"] = predictor.total_mispredictions
        values["cond_branch_mispredictions"] = (
            predictor.conditional_mispredictions
        )
        values["return_mispredictions"] = predictor.return_mispredictions
        values["indirect_mispredictions"] = predictor.indirect_mispredictions
        values["btb_hits"] = predictor.btb.hits
        values["btb_misses"] = predictor.btb.misses
        values["rsb_overflows"] = predictor.rsb.overflows
        values["l1d_accesses"] = l1d.accesses
        values["l1d_hits"] = l1d.hits
        values["l1d_misses"] = l1d.misses
        values["l1d_read_accesses"] = l1d.read_accesses
        values["l1d_read_misses"] = l1d.read_misses
        values["l1d_write_accesses"] = l1d.write_accesses
        values["l1d_write_misses"] = l1d.write_misses
        values["l1d_evictions"] = l1d.evictions
        values["l1d_writebacks"] = l1d.writebacks
        values["l1i_accesses"] = l1i.accesses
        values["l1i_hits"] = l1i.hits
        values["l1i_misses"] = l1i.misses
        # Per-hierarchy L2 attribution (correct even with a shared L2);
        # evictions/writebacks come from the array itself, so under a
        # shared L2 they are machine-wide — documented in DESIGN.md.
        local_l2 = caches.l2_stats
        values["l2_accesses"] = local_l2.accesses
        values["l2_hits"] = local_l2.hits
        values["l2_misses"] = local_l2.misses
        values["l2_evictions"] = l2.evictions
        values["l2_writebacks"] = l2.writebacks
        values["total_cache_accesses"] = l1d.accesses + l1i.accesses
        values["total_cache_hits"] = l1d.hits + l1i.hits
        values["total_cache_misses"] = l1d.misses + l1i.misses
        values["dtlb_accesses"] = cpu.dtlb.hits + cpu.dtlb.misses
        values["dtlb_hits"] = cpu.dtlb.hits
        values["dtlb_misses"] = cpu.dtlb.misses
        values["itlb_accesses"] = cpu.itlb.hits + cpu.itlb.misses
        values["itlb_hits"] = cpu.itlb.hits
        values["itlb_misses"] = cpu.itlb.misses
        return values

    def snapshot(self):
        """Cheap cumulative snapshot usable with :meth:`delta_since`."""
        return self.read()

    def delta_since(self, snapshot):
        """Event deltas between *snapshot* and now (one profiler sample)."""
        current = self.read()
        return {name: current[name] - snapshot[name] for name in EVENT_NAMES}

    @property
    def ipc(self):
        """Retired instructions per cycle (Table I metric)."""
        cycles = self._cpu.cycles
        if cycles <= 0:
            return 0.0
        return sum(self._cpu.op_counts) / cycles
