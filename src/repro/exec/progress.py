"""Live progress/ETA for long sweeps.

A :class:`SweepProgress` rides in the run's :class:`~repro.exec.runner.
RunContext`; :func:`~repro.exec.runner.execute_plan` starts it with the
plan's size and it prints one line per completed cell (to stderr by
default, so report artefacts on stdout stay byte-identical across
backends) with observed throughput (cells/s) and a wall-clock ETA
extrapolated from it.
"""

import sys
import time

from repro.core.reporting import format_progress
from repro.obs.metrics import format_metrics_line


class SweepProgress:
    """Per-cell completion lines with throughput and a running ETA.

    The estimate is *batch-aware*: the warm-pool backend delivers
    results in bursts (one burst per batch round-trip), so a
    mean-cell-time × width model would oscillate wildly between
    bursts.  Instead the ETA divides the remaining cell count by the
    throughput actually observed on the driver's wall clock —
    ``computed cells / elapsed`` — which prices in parallel width,
    batching and pool overhead without modelling any of them.

    When the sweep traces (``--trace``), each line also carries the
    cell's headline metrics — virtual cycles, cache misses, record
    count — pulled from the per-cell snapshot the runner hands over.
    When a :class:`~repro.exec.cellcache.CellCache` is attached, the
    line shows its running hit ratio (``cache hits/lookups``).

    *clock* exists for tests: progress math must be assertable without
    real sleeps.
    """

    def __init__(self, stream=None, cell_cache=None, clock=time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        self.cell_cache = cell_cache
        self._clock = clock
        self.start(None, 0)

    def start(self, experiment, total):
        """Begin a sweep of *total* cells (``execute_plan`` calls this)."""
        self.experiment = experiment
        self.total = total
        self.done = 0
        self.started = self._clock()
        self._computed = 0

    def cells_per_second(self):
        """Observed computed-cell throughput on the wall clock.

        Cached cells are excluded (they replay in microseconds and
        would inflate the rate the remaining *computed* cells are
        estimated with); ``None`` until the first computed cell lands.
        """
        wall = self._clock() - self.started
        if self._computed == 0 or wall <= 0:
            return None
        return self._computed / wall

    def eta_seconds(self):
        """Remaining wall-clock: cells left ÷ observed throughput."""
        rate = self.cells_per_second()
        if rate is None:
            return None
        return (self.total - self.done) / rate

    def update(self, key, status, elapsed, metrics=None):
        self.done += 1
        if status != "cached":
            self._computed += 1
        cache = None
        if self.cell_cache is not None:
            lookups = self.cell_cache.hits + self.cell_cache.misses
            if lookups:
                cache = f"{self.cell_cache.hits}/{lookups}"
        line = format_progress(
            self.experiment, self.done, self.total, key, status,
            elapsed, self.eta_seconds(),
            metrics=format_metrics_line(metrics) if metrics else None,
            rate=self.cells_per_second(), cache=cache,
        )
        print(line, file=self.stream, flush=True)

    def phases(self, breakdown):
        """One end-of-sweep line: where execute_plan's wall time went.

        *breakdown* maps phase name (schedule / cache_lookup / compute /
        ipc / merge) to seconds; zero phases are elided so a serial
        untraced sweep prints a short line.
        """
        parts = [f"{name} {seconds:.2f}s"
                 for name, seconds in breakdown.items()
                 if seconds >= 0.005]
        if not parts:
            return
        print(f"{self.experiment}: phases: " + ", ".join(parts),
              file=self.stream, flush=True)
