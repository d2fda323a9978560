"""Unit tests for the per-cell metrics registry."""

import json

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_count,
    format_metrics_line,
    headline,
)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("events.cache.miss")
        metrics.inc("events.cache.miss", 3)
        metrics.set_gauge("cpu.cycles", 9000)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"events.cache.miss": 4}
        assert snapshot["gauges"] == {"cpu.cycles": 9000}

    def test_histogram_bucket_placement(self):
        metrics = MetricsRegistry()
        metrics.observe("cpu.speculate.squashed", 1)   # <= 1, bucket 0
        metrics.observe("cpu.speculate.squashed", 3)   # <= 4, bucket 2
        metrics.observe("cpu.speculate.squashed", 1 << 25)  # overflow
        hist = metrics.snapshot()["histograms"]["cpu.speculate.squashed"]
        assert hist["buckets"][0] == 1
        assert hist["buckets"][2] == 1
        assert hist["buckets"][-1] == 1
        assert hist["count"] == 3
        assert hist["sum"] == 1 + 3 + (1 << 25)
        assert len(hist["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_batched_observe_equals_repeated_observe(self):
        one, batched = MetricsRegistry(), MetricsRegistry()
        for value, count in ((0, 2), (5, 3), (1 << 25, 1)):
            for _ in range(count):
                one.observe("ooo.rob.occupancy", value)
            batched.observe("ooo.rob.occupancy", value, count)
        assert batched.snapshot() == one.snapshot()

    def test_snapshot_is_json_stable(self):
        metrics = MetricsRegistry()
        metrics.inc("b")
        metrics.inc("a")
        metrics.set_gauge("z", 1)
        text = json.dumps(metrics.snapshot(), sort_keys=True)
        assert json.loads(text) == metrics.snapshot()
        # Key order is sorted regardless of insertion order.
        assert list(metrics.snapshot()["counters"]) == ["a", "b"]


class TestFormatting:
    def test_format_count(self):
        assert format_count(17) == "17"
        assert format_count(1234) == "1.2k"
        assert format_count(5_000_000) == "5.0M"
        assert format_count(2_500_000_000) == "2.5G"

    def test_headline_skips_missing(self):
        snapshot = {"counters": {}, "gauges": {"trace.records": 12},
                    "histograms": {}}
        assert headline(snapshot) == [("rec", "12")]

    def test_headline_hides_zero_drops(self):
        snapshot = {
            "counters": {"events.cache.miss": 7},
            "gauges": {"cpu.cycles": 100, "trace.records": 3,
                       "trace.dropped": 0},
            "histograms": {},
        }
        labels = [label for label, _ in headline(snapshot)]
        assert "drop" not in labels
        assert labels == ["cycles", "miss", "rec"]

    def test_format_metrics_line(self):
        snapshot = {"counters": {"events.cache.miss": 3400},
                    "gauges": {"cpu.cycles": 1_200_000},
                    "histograms": {}}
        assert format_metrics_line(snapshot) == "cycles=1.2M miss=3.4k"
