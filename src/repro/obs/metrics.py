"""Per-cell metrics: counters, gauges, power-of-two histograms.

A :class:`MetricsRegistry` travels with a
:class:`~repro.obs.tracer.Tracer` through one experiment cell and is
snapshotted into the cell's report section and cell-cache entry.
Snapshots are plain sorted-key dicts of ints so they JSON-round-trip
exactly — replaying a cached cell yields the same bytes a fresh run
did.

Naming scheme (see docs/OBSERVABILITY.md): dotted lowercase paths,
``<layer>.<thing>`` (``cpu.cycles``, ``hid.windows``); every emitted
trace record also auto-increments an ``events.<record name>`` counter,
so event totals survive even when the record itself was dropped by the
``max_records`` cap.
"""

#: Histogram bucket upper bounds: powers of two up to 2**20, then +inf.
DEFAULT_BUCKETS = tuple(1 << i for i in range(21))


class MetricsRegistry:
    """Counters / gauges / histograms for one cell."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def inc(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name, value):
        self.gauges[name] = value

    def observe(self, name, value, count=1):
        """Count *value* (*count* times) into the histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {
                "buckets": [0] * (len(DEFAULT_BUCKETS) + 1),
                "count": 0,
                "sum": 0,
            }
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                hist["buckets"][index] += count
                break
        else:
            hist["buckets"][-1] += count
        hist["count"] += count
        hist["sum"] += value * count

    def snapshot(self):
        """JSON-safe, key-sorted copy (deterministic serialisation)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: {
                    "buckets": list(v["buckets"]),
                    "count": v["count"],
                    "sum": v["sum"],
                }
                for k, v in sorted(self.histograms.items())
            },
        }


def format_count(value):
    """Compact human count: 1234 -> '1.2k', 5_000_000 -> '5.0M'."""
    value = float(value)
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= bound:
            return f"{value / bound:.1f}{suffix}"
    return f"{int(value)}"


def headline(snapshot):
    """The few numbers worth a progress line / report row.

    Returns an ordered (label, formatted value) list from a
    :meth:`MetricsRegistry.snapshot` dict; missing metrics are skipped
    so sparse snapshots stay short.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    picks = (
        ("cycles", gauges.get("cpu.cycles")),
        ("miss", counters.get("events.cache.miss")),
        ("spec", counters.get("events.cpu.speculate")),
        ("squash", counters.get("ooo.squashes")),
        ("stall", counters.get("ooo.dispatch_stalls")),
        ("rec", gauges.get("trace.records")),
        ("drop", gauges.get("trace.dropped") or None),
    )
    return [(label, format_count(value))
            for label, value in picks if value is not None]


def format_metrics_line(snapshot):
    """'cycles=1.2M miss=3.4k rec=501' — the stderr progress suffix."""
    return " ".join(f"{label}={text}" for label, text in headline(snapshot))
