"""Per-layer attribution from outside the program.

:class:`LayerTracer` wraps the public entry point of each layer of the
``repro`` package, records one span ``(name, start, end, parent, n,
aside)`` per call in memory, and restores every original function when
it is uninstalled.  Nothing inside ``src/`` knows it is being traced.

A span's *self time* is its duration minus the time covered by its
child spans and minus ``aside``, the tracer's own bookkeeping inside
the span (reading the PMU after a quantum).  The root span covers the
whole experiment call, so the self times of every layer, plus the
root's self time (code outside every wrapped layer) and the
bookkeeping, add up exactly to the traced wall time.
"""

import importlib
import sys
import time
import weakref

#: (span name, module, attribute path) of every wrapped entry point.
#: ``Process.step_quantum`` is split by core: ``cpu.run`` on the
#: in-order core, ``uarch.run`` on the out-of-order one.
ENTRY_POINTS = (
    ("kernel.spawn", "repro.kernel.system", "System.spawn"),
    ("kernel.execve", "repro.kernel.system", "System.do_execve"),
    ("cpu.run", "repro.kernel.process", "Process.step_quantum"),
    ("cpu.translate", "repro.cpu.superblock", "SuperblockEngine.translate"),
    ("hid.fit", "repro.hid.detector", "HidDetector.fit"),
    ("hid.eval", "repro.hid.detector", "HidDetector.accuracy_on"),
    ("hid.sample", "repro.hid.profiler", "Profiler.profile"),
    ("workloads.build", "repro.workloads.base", "Workload.build"),
    ("isa.assemble", "repro.kernel.loader", "build_binary"),
    ("attack.build", "repro.attack", "build_spectre"),
    ("attack.inject", "repro.attack.injection", "plan_execve_injection"),
    ("exec.plan", "repro.exec.runner", "execute_plan"),
    ("exec.cell", "repro.exec.backends", "invoke_cell"),
    ("exec.cache_store", "repro.exec.cellcache", "CellCache.store"),
    ("obs.manifest", "repro.obs.ledger", "build_manifest"),
    ("obs.manifest", "repro.obs.ledger", "write_manifest"),
)

ROOT = "repro"

#: Attribute that marks a tracer wrapper (its value is the span name).
WRAPPER_MARK = "__perfbench_span__"

#: PMU events summed over every simulated process: metric -> event.
PMU_TOTALS = (
    ("sim.instructions", "instructions"),
    ("sim.spec_instructions", "spec_instructions"),
    ("sim.mispredictions", "branch_mispredictions"),
    ("sim.cycles", "cycles"),
)

#: Per-layer metrics: name -> unit.  ``*_s`` are self times.
METRICS = {
    "cpu.run_s": "s", "cpu.quanta": "count",
    "uarch.run_s": "s", "uarch.quanta": "count",
    "cpu.translate_s": "s", "cpu.translations": "count",
    "cpu.instructions_translated": "count",
    "sim.instructions": "count", "sim.spec_instructions": "count",
    "sim.mispredictions": "count", "sim.cycles": "count",
    "sim.ns_per_instruction": "ns",
    "hid.fit_s": "s", "hid.fits": "count", "hid.fit_rows": "count",
    "hid.eval_s": "s", "hid.sample_s": "s", "hid.windows": "count",
    "kernel.spawn_s": "s", "kernel.spawns": "count",
    "kernel.execve_s": "s", "kernel.execves": "count",
    "workloads.build_s": "s", "isa.assemble_s": "s",
    "isa.assemblies": "count",
    "attack.build_s": "s", "attack.inject_s": "s",
    "attack.injections": "count",
    "exec.plan_s": "s", "exec.cell_s": "s", "exec.cells": "count",
    "exec.cache_store_s": "s", "exec.cache_stores": "count",
    "obs.manifest_s": "s",
    "trace.other_s": "s", "trace.bookkeeping_s": "s",
    "trace.wall_s": "s", "trace.base_wall_s": "s", "trace.overhead": "x",
}

#: Counts that must repeat exactly from run to run of one seed.
EXACT_COUNTS = (
    "sim.instructions", "sim.spec_instructions", "sim.mispredictions",
    "sim.cycles", "hid.fits", "isa.assemblies", "cpu.translations",
)

#: Layer self times, in the order :func:`summarise` reports them.
LAYER_TIMES = tuple(name for name, unit in METRICS.items()
                    if unit == "s" and not name.startswith("trace."))


def _resolve(module_name, path):
    """(owner, attribute name, original) for one entry point."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(original, replacement):
    """Point every ``repro`` module global bound to *original* at
    *replacement* (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


class LayerTracer:
    """Wraps the layer entry points; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._pmu_seen = weakref.WeakKeyDictionary()
        self.pmu_totals = {event: 0 for _, event in PMU_TOTALS}

    # ---- spans -----------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        span[2] = time.perf_counter()

    def span(self, name, fn):
        """Call *fn* under a span named *name*; returns its result."""
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, name, original):
        open_, close = self._open, self._close

        if name == "cpu.run":
            from repro.uarch.ooo import OooCore
            tracer = self

            def wrapper(process, *args, **kwargs):
                span = open_("uarch.run" if isinstance(process.cpu, OooCore)
                             else "cpu.run")
                try:
                    return original(process, *args, **kwargs)
                finally:
                    tick = time.perf_counter()
                    tracer._count_pmu(process)
                    span[5] = time.perf_counter() - tick
                    close(span)
        else:
            count = _COUNTERS.get(name)

            def wrapper(*args, **kwargs):
                span = open_(name)
                try:
                    result = original(*args, **kwargs)
                    if count is not None:
                        span[4] = count(args, kwargs, result)
                    return result
                finally:
                    close(span)

        setattr(wrapper, WRAPPER_MARK, name)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def _count_pmu(self, process):
        """Add the PMU growth since this process's last quantum."""
        reading = process.pmu.read()
        seen = self._pmu_seen.get(process)
        now = tuple(int(reading[event]) for _, event in PMU_TOTALS)
        for (_, event), value, last in zip(
                PMU_TOTALS, now, seen or (0,) * len(PMU_TOTALS)):
            self.pmu_totals[event] += value - last
        self._pmu_seen[process] = now

    # ---- install / restore -----------------------------------------
    def install(self):
        """Wrap every entry point (class attributes and module globals)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path in ENTRY_POINTS:
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                _rebind(original, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def uninstall(self):
        """Put every original back, in reverse order of installation."""
        while self._patches:
            owner, attr, original, wrapper = self._patches.pop()
            setattr(owner, attr, original)
            if not isinstance(owner, type):
                _rebind(wrapper, original)


def _rows(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return len(dataset.y)


def _translated(args, kwargs, result):
    # translate() returns 0 for a rejected run, else (fn, length, exit).
    return result[1] if result else 0


#: name -> counter(args, kwargs, result) stored as the span's ``n``.
_COUNTERS = {
    "hid.fit": _rows,
    "hid.sample": lambda args, kwargs, result: len(result),
    "cpu.translate": _translated,
}


def _is_wrapper(value):
    return getattr(value, WRAPPER_MARK, None) is not None


def restored():
    """True when no entry point or ``repro`` global is still a wrapper."""
    for _, module_name, path in ENTRY_POINTS:
        if _is_wrapper(_resolve(module_name, path)[2]):
            return False
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if any(_is_wrapper(value) for value
                   in list(getattr(module, "__dict__", {}).values())):
                return False
    return True


def summarise(spans, pmu_totals):
    """Per-layer metrics (see :data:`METRICS`) from one traced run.

    *spans* are ``(name, start, end, parent, n, aside)``; the first is
    the root span, whose duration is ``trace.wall_s``.
    """
    self_s = [end - start - aside for _, start, end, _, _, aside in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            self_s[parent] -= end - start
    times, calls, work = {}, {}, {}
    for index, (name, _, _, _, n, _) in enumerate(spans):
        times[name] = times.get(name, 0.0) + self_s[index]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + n

    out = {key: times.get(key[:-2], 0.0) for key in LAYER_TIMES}
    out.update({
        "cpu.quanta": calls.get("cpu.run", 0),
        "uarch.quanta": calls.get("uarch.run", 0),
        "cpu.translations": sum(1 for name, _, _, _, n, _ in spans
                                if name == "cpu.translate" and n),
        "cpu.instructions_translated": work.get("cpu.translate", 0),
        "hid.fits": calls.get("hid.fit", 0),
        "hid.fit_rows": work.get("hid.fit", 0),
        "hid.windows": work.get("hid.sample", 0),
        "kernel.spawns": calls.get("kernel.spawn", 0),
        "kernel.execves": calls.get("kernel.execve", 0),
        # Only assemblies that missed the Workload.build cache count.
        "isa.assemblies": sum(
            1 for name, _, _, parent, _, _ in spans
            if name == "isa.assemble" and parent is not None
            and spans[parent][0] == "workloads.build"),
        "attack.injections": calls.get("attack.inject", 0),
        "exec.cells": calls.get("exec.cell", 0),
        "exec.cache_stores": calls.get("exec.cache_store", 0),
        "trace.other_s": times.get(ROOT, 0.0),
        "trace.bookkeeping_s": sum(span[5] for span in spans),
        "trace.wall_s": spans[0][2] - spans[0][1],
    })
    for metric, event in PMU_TOTALS:
        out[metric] = pmu_totals[event]
    run_s = out["cpu.run_s"] + out["uarch.run_s"] + out["cpu.translate_s"]
    out["sim.ns_per_instruction"] = (
        run_s * 1e9 / out["sim.instructions"]
        if out["sim.instructions"] else 0.0)
    return out
