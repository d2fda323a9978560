"""Module-level cell bodies for the exec tests.

Cells must be importable top-level functions: ``ProcessPoolBackend``
pickles ``(fn, kwargs)`` to spawn-started workers, so a lambda or a
closure would fail before it ever ran.
"""

import functools
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


def interrupt(cell_seed=0, **_kwargs):
    """Simulate the user's ^C landing while this cell runs."""
    raise KeyboardInterrupt


def fault_probe(kind, faults=None, cell_seed=0):
    """Consume one injected fault so 'fired' telemetry rides back."""
    fired = bool(faults is not None and faults.should_fire(
        kind, context=f"probe:{cell_seed}"
    ))
    return {"fired": fired}


def interrupt_after(fn, completed):
    """*fn* that raises KeyboardInterrupt once *completed* calls returned.

    The stand-in keeps *fn*'s module and qualified name, so the cell
    cache keys its cells exactly like *fn*'s: the cells that completed
    before the "^C" are hits when the real *fn* re-runs the sweep.
    Serial backend only — a pool worker would unpickle the real *fn*.
    """
    calls = []

    @functools.wraps(fn)
    def killed(**kwargs):
        if len(calls) >= completed:
            raise KeyboardInterrupt
        calls.append(kwargs)
        return fn(**kwargs)

    return killed


def kill_fig5_attempt_wave(knobs, cell_cache):
    """^C a pool run of fig5 *knobs* once its attempt wave starts.

    The ``training`` cell completes first, so *cell_cache* keeps it; a
    re-run against the same cache resumes from there.
    """
    import pytest

    from repro.core.experiments.fig5 import plan_fig5
    from repro.exec import ProcessPoolBackend, RunContext, execute_plan

    plan = plan_fig5(**knobs)
    for cell in plan:
        if cell.key.startswith("spectre/"):
            cell.fn = interrupt
    with pytest.raises(KeyboardInterrupt):
        execute_plan(plan, RunContext(backend=ProcessPoolBackend(2),
                                      cell_cache=cell_cache))


def fig5_manifest(knobs, seed, backend):
    """Run a fig5 sweep and build its ledger manifest.

    Compare two of these with :func:`repro.obs.ledger.manifest_bytes`
    (which drops the volatile ``timing`` section) to check that two
    backends produce the same artefact byte for byte.
    """
    from repro.core.experiments.fig5 import run_fig5
    from repro.exec import RunContext

    result = run_fig5(seed=seed, **knobs,
                      context=RunContext(backend=backend))
    return result_manifest(result, dict(knobs, seed=seed))


def result_manifest(result, knobs):
    """The ledger manifest of a finished fig5 run of ``run_fig5(**knobs)``."""
    from repro.core.experiments.fig5 import fig5_meta
    from repro.obs.ledger import build_manifest

    knobs = {"host": "basicmath", **knobs}
    return build_manifest("fig5", fig5_meta(**knobs), result)
