"""Deterministic tracing: virtual-time spans and events.

A :class:`Tracer` records nested spans (``ph="B"``/``"E"`` pairs or
``"X"`` complete events) and point events (``ph="i"``) into an
in-memory list.  Timestamps are **virtual**: every record carries a
clock id (``clk``) and a timestamp (``ts``) read from a registered
clock callable — CPU cycle counters in practice, never wall clock — so
a trace is a pure function of the cell's seed and knobs.  Serial,
parallel, and resumed runs of the same cell therefore produce
byte-identical traces (the contract tested in ``tests/obs``).

The disabled path is :data:`NULL`, a singleton whose ``channel()``
returns ``None``.  Instrumented components bind their channels once at
construction and guard every emission site with ``if ch is not None``;
those guards live only on cold sub-paths (mispredict, cache miss,
syscall, ...), so the hot CPU step loop is untouched when tracing is
off.

Records are plain dicts shaped like Chrome trace-event phases::

    {"ph": "B"|"E"|"X"|"i", "name": ..., "cat": ...,
     "ts": <int>, "clk": <int>, "seq": <int>,
     "dur": <int, X only>, "args": {...}}   # args optional

``clk`` 0 is the tracer's own sequence clock (orchestration records
that have no CPU to charge); clocks 1.. are registered per simulated
CPU.  ``seq`` is the global emission ordinal, which makes the record
stream totally ordered even across clocks.
"""

import contextlib
import dataclasses
import types
import weakref

from repro.obs.metrics import MetricsRegistry

#: Every category an instrumentation site may use.  The ``ooo.*``
#: categories carry the Tomasulo core's pipeline spans (dispatch/commit
#: stalls, squash recoveries, LSQ pressure) and are off unless asked
#: for — they are chatty at paper scale.
CATEGORIES = ("cpu", "cache", "kernel", "attack", "hid", "exec",
              "ooo.dispatch", "ooo.commit", "ooo.squash", "ooo.lsq")

#: Default per-cell record cap; excess emissions are counted, not kept.
DEFAULT_MAX_RECORDS = 200_000


@dataclasses.dataclass(frozen=True)
class TraceConfig:
    """Picklable tracing knobs, shipped to pool workers per cell.

    ``categories`` is the enabled subset of :data:`CATEGORIES` (``None``
    means all); ``max_records`` bounds per-cell memory — a saturated
    trace keeps its first ``max_records`` records and counts the rest
    in the ``trace.dropped`` metric.
    """

    categories: tuple = None
    max_records: int = DEFAULT_MAX_RECORDS

    def wants(self, category):
        return self.categories is None or category in self.categories


def parse_filter(spec):
    """``--trace-filter cpu,cache`` -> validated category tuple.

    ``None``/empty means "all categories".
    """
    if not spec:
        return None
    names = tuple(
        part.strip() for part in str(spec).split(",") if part.strip()
    )
    unknown = sorted(set(names) - set(CATEGORIES))
    if unknown:
        raise ValueError(
            f"unknown trace categories {unknown}; "
            f"choose from {', '.join(CATEGORIES)}"
        )
    return names


class TraceChannel:
    """One category's emission handle, bound to one virtual clock.

    Channels are handed out by :meth:`Tracer.channel` only when the
    category is enabled; a disabled category yields ``None`` so call
    sites pay a single ``is not None`` check and nothing else.
    """

    __slots__ = ("_tracer", "_cat", "_clk")

    def __init__(self, tracer, category, clk):
        self._tracer = tracer
        self._cat = category
        self._clk = clk

    def now(self):
        """Current virtual time on this channel's clock."""
        if not self._clk:
            return self._tracer._seq
        return self._tracer.read_clock(self._clk)

    def event(self, name, **args):
        """Point event (``ph="i"``) at the current virtual time."""
        self._tracer._emit("i", name, self._cat, self.now(), self._clk,
                           args or None)

    def complete(self, name, ts0, **args):
        """Complete span (``ph="X"``) from *ts0* to now."""
        ts1 = self.now()
        self._tracer._emit("X", name, self._cat, ts0, self._clk,
                           args or None, dur=ts1 - ts0)


class Tracer:
    """Recording tracer: one per experiment cell."""

    enabled = True

    def __init__(self, config=None):
        self.config = config or TraceConfig()
        self.records = []
        self.metrics = MetricsRegistry()
        self.dropped = 0
        self._seq = 0
        #: ``clk - 1`` -> a function returning the clock callable, or
        #: ``None`` once the callable's owner has been freed.
        self._clocks = []
        #: ``clk`` -> final reading of a clock whose owner was freed.
        self._retired = {}

    # -- clock + channel registry ------------------------------------

    def register_clock(self, fn):
        """Register a virtual clock callable; returns its ``clk`` id.

        A bound method is held through a weak reference, as Memory's
        code listeners are: a core registers its own ``_cycles_now``
        and holds the tracer, so a strong reference would make the two
        a cycle.  The owner hands over its final reading through
        :meth:`retire_clock` as it is freed.  Plain callables are held
        strongly.
        """
        if isinstance(fn, types.MethodType):
            ref = weakref.WeakMethod(fn)
        else:
            def ref():
                return fn
        self._clocks.append(ref)
        return len(self._clocks)

    def retire_clock(self, clk, reading):
        """Keep *reading* as clock *clk*'s value after its owner is gone."""
        self._retired[clk] = reading

    def read_clock(self, clk):
        """Current reading of registered clock *clk*."""
        fn = self._clocks[clk - 1]()
        if fn is None:
            return self._retired[clk]
        return int(fn())

    def channel(self, category, clk=0):
        """A :class:`TraceChannel`, or ``None`` if *category* is off."""
        if not self.config.wants(category):
            return None
        return TraceChannel(self, category, clk)

    # -- record emission ---------------------------------------------

    def _emit(self, ph, name, cat, ts, clk, args, dur=None):
        self.metrics.inc("events." + name)
        seq = self._seq
        self._seq = seq + 1
        if len(self.records) >= self.config.max_records:
            self.dropped += 1
            return
        record = {"ph": ph, "name": name, "cat": cat,
                  "ts": ts, "clk": clk, "seq": seq}
        if dur is not None:
            record["dur"] = dur
        if args:
            record["args"] = args
        self.records.append(record)

    # -- tracer-level (sequence-clocked) emission --------------------

    def event(self, name, category, **args):
        """Orchestration point event on the sequence clock."""
        if self.config.wants(category):
            self._emit("i", name, category, self._seq, 0, args or None)

    def begin(self, name, category, **args):
        if self.config.wants(category):
            self._emit("B", name, category, self._seq, 0, args or None)

    def end(self, name, category, **args):
        if self.config.wants(category):
            self._emit("E", name, category, self._seq, 0, args or None)

    @contextlib.contextmanager
    def span(self, name, category, **args):
        """``B``/``E`` pair around a block; the ``E`` survives exceptions."""
        self.begin(name, category, **args)
        try:
            yield
        finally:
            self.end(name, category)

    # -- lifecycle ---------------------------------------------------

    def finalize(self):
        """Fold clock totals and record counts into the metrics.

        Called once per cell after the workload ran: the summed final
        clock readings become the ``cpu.cycles`` gauge (total virtual
        time burned across every simulated CPU the cell built, freed
        ones included).
        """
        if self._clocks:
            self.metrics.set_gauge("cpu.cycles", sum(
                self.read_clock(clk)
                for clk in range(1, len(self._clocks) + 1)))
        self.metrics.set_gauge("trace.records", len(self.records))
        self.metrics.set_gauge("trace.dropped", self.dropped)
        return self


class NullTracer:
    """The default no-op recorder.

    ``channel()`` returns ``None`` — components then skip binding
    entirely, so the disabled path costs one attribute check on cold
    sub-paths and *nothing* on the hot step loop.
    """

    enabled = False
    records = ()
    dropped = 0

    def register_clock(self, fn):
        return 0

    def channel(self, category, clk=0):
        return None

    def event(self, name, category, **args):
        pass

    def begin(self, name, category, **args):
        pass

    def end(self, name, category, **args):
        pass

    def span(self, name, category, **args):
        return contextlib.nullcontext()

    def finalize(self):
        return self


#: Shared no-op tracer; the bottom of the ambient stack.
NULL = NullTracer()

#: Ambient tracer stack: deep call sites (watchdog, attack stages,
#: profiler) resolve their tracer here instead of threading it through
#: a dozen signatures.  Per-process (cells in pool workers each
#: activate their own), never shared across threads in practice —
#: cells are single-threaded by construction.
_ACTIVE = [NULL]


def current_tracer():
    """The innermost active tracer (:data:`NULL` when tracing is off)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def activate(tracer):
    """Make *tracer* ambient for the duration of a ``with`` block."""
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
