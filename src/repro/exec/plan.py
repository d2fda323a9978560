"""Cell / SweepPlan: the declarative form of an experiment sweep.

A runner no longer loops inline over hosts × attempts × rows; it
declares a :class:`SweepPlan` — an ordered set of named :class:`Cell`\\ s
with explicit data dependencies — and hands the plan to a backend
(:mod:`repro.exec.backends`).  Because each cell carries its own derived
seed (:func:`repro.exec.seeds.derive_seed`) and its own derived fault
stream, the plan's results are a pure function of (experiment, knobs,
root seed): serial and parallel execution produce identical values.
"""

import dataclasses

from repro.exec.seeds import derive_seed


@dataclasses.dataclass
class Cell:
    """One unit of sweep work.

    ``fn(**kwargs)`` must return a JSON-serialisable value.  ``deps``
    maps a kwarg name to another cell's key: the runner injects that
    cell's (possibly cache-replayed) value before invoking ``fn``.
    ``seed_kw``/``faults_kw`` name the kwargs that receive the derived
    per-cell seed / fault injector (``None`` = the cell takes neither).
    ``local`` marks a cell that must run in the driver process (it
    closes over shared live state and cannot be pickled to a worker),
    so it is never memoized in the cell cache either.
    """

    key: str
    fn: object
    kwargs: dict
    seed: int
    deps: dict = dataclasses.field(default_factory=dict)
    seed_kw: str = None
    faults_kw: str = None
    local: bool = False


class SweepPlan:
    """An experiment's cell grid, in declaration order."""

    def __init__(self, experiment, root_seed, faults=None):
        self.experiment = experiment
        self.root_seed = root_seed
        self.faults = faults
        self.cells = []
        self.presets = {}
        self._keys = set()

    def add(self, key, fn, kwargs=None, deps=None, seed_kw=None,
            faults_kw=None, local=False):
        """Declare one cell; returns its derived seed (for inspection)."""
        key = str(key)
        if key in self._keys or key in self.presets:
            raise ValueError(
                f"duplicate cell key {key!r} in plan {self.experiment!r}"
            )
        deps = dict(deps or {})
        for kwarg, dep_key in deps.items():
            if dep_key not in self._keys and dep_key not in self.presets:
                raise ValueError(
                    f"cell {key!r} depends on unknown cell {dep_key!r} "
                    f"(dependencies must be declared first)"
                )
            if kwarg in (kwargs or {}):
                raise ValueError(
                    f"cell {key!r}: kwarg {kwarg!r} is both fixed and "
                    f"dependency-injected"
                )
        seed = derive_seed(self.experiment, key, self.root_seed)
        self.cells.append(Cell(
            key=key, fn=fn, kwargs=dict(kwargs or {}), seed=seed,
            deps=deps, seed_kw=seed_kw, faults_kw=faults_kw,
            local=local,
        ))
        self._keys.add(key)
        return seed

    def preset(self, key, value):
        """Provide a dependency value without a cell (shared-state reuse).

        A preset never executes and is never cached; it exists so a
        caller that already holds e.g. a sampled training corpus can
        feed it to dependent cells.
        """
        key = str(key)
        if key in self._keys or key in self.presets:
            raise ValueError(f"duplicate cell key {key!r}")
        self.presets[key] = value

    @property
    def has_local_cells(self):
        return any(cell.local for cell in self.cells)

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def waves(self):
        """Cells grouped into dependency levels, declaration order kept.

        Wave *n* contains every cell whose dependencies all live in
        waves < *n* (or in presets); cells inside one wave are mutually
        independent and may run concurrently.
        """
        level = {key: -1 for key in self.presets}
        waves = []
        for cell in self.cells:
            depth = -1
            for dep_key in cell.deps.values():
                depth = max(depth, level[dep_key])
            level[cell.key] = depth + 1
            while len(waves) <= depth + 1:
                waves.append([])
            waves[depth + 1].append(cell)
        return waves
