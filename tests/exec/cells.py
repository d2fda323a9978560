"""Module-level cell bodies for the exec tests.

Cells must be importable top-level functions: ``ProcessPoolBackend``
pickles ``(fn, kwargs)`` to spawn-started workers, so a lambda or a
closure would fail before it ever ran.
"""

import os
import random

from repro.errors import FatalError, TransientError


def seeded_value(tag, cell_seed=0):
    """Deterministic value from the derived seed alone."""
    rng = random.Random(cell_seed)
    return {"tag": tag, "draw": rng.random()}


def summed(values, factor, cell_seed=0):
    """Depends on another cell's value (dependency injection check)."""
    return {"sum": values["draw"] * factor, "seed": cell_seed}


def transient_boom(cell_seed=0):
    raise TransientError(f"injected transient failure (seed {cell_seed})")


def fatal_boom(cell_seed=0):
    raise FatalError("injected fatal failure")


def hard_crash(cell_seed=0):
    """Kill the worker process outright (no exception, no cleanup)."""
    os._exit(17)


def interrupt(cell_seed=0):
    """Simulate the user's ^C landing while this cell runs."""
    raise KeyboardInterrupt


def fault_probe(kind, faults=None, cell_seed=0):
    """Consume one injected fault so 'fired' telemetry rides back."""
    fired = bool(faults is not None and faults.should_fire(
        kind, context=f"probe:{cell_seed}"
    ))
    return {"fired": fired}


def fig5_manifest(knobs, seed, backend):
    """Run a fig5 sweep and build its ledger manifest.

    Compare two of these with :func:`repro.obs.ledger.manifest_bytes`
    (which drops the volatile ``timing`` section) to check that two
    backends produce the same artefact byte for byte.
    """
    from repro.core.experiments.fig5 import fig5_meta, plan_fig5, run_fig5
    from repro.obs.ledger import build_manifest

    result = run_fig5(seed=seed, backend=backend, **knobs)
    config = fig5_meta(seed=seed, **knobs)
    plan = plan_fig5(seed=seed, **knobs)
    return build_manifest("fig5", config, result, plan=plan,
                          statuses=getattr(result, "cell_status", None))
