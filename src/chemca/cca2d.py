"""2D chemical cellular automata: the Chemit engine.

A Chemit is a core cell (CORE class) plus the four HALO neighbors it
maintains. Each step, the digital state machine moves, copies or kills
cores based on where high chemical states appeared in the 12-cell
neighborhood (4 nearest + 8 next-nearest), rebuilds halos, and scatters
random fluctuations; the phenomenological chemical machine then samples
the next chemical-state grid. Periodic boundaries throughout.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chemodel import ChemModel2DParams, PwmClass, prob_high_2d_grid
from .lattice import Grid, nearest_neighbors, next_nearest_neighbors, torus

DEFAULT_FLUCT_RATIO = 0.1


@dataclass
class PwmGrid:
    """PWM class per cell plus interfacial stirrer bits.

    iface_h[r, c] couples (r, c) with (r, c+1); iface_v[r, c] couples
    (r, c) with (r+1, c); both wrap.
    """

    classes: np.ndarray
    iface_h: np.ndarray
    iface_v: np.ndarray

    @classmethod
    def empty(cls, grid: Grid) -> "PwmGrid":
        shape = (grid.height, grid.width)
        return cls(
            np.zeros(shape, np.int8), np.zeros(shape, np.uint8), np.zeros(shape, np.uint8)
        )

    def copy(self) -> "PwmGrid":
        return PwmGrid(self.classes.copy(), self.iface_h.copy(), self.iface_v.copy())


@dataclass
class ChemitEventCounts:
    propagation: int = 0
    replication: int = 0
    competition_survived: int = 0
    competition_died: int = 0
    annihilation: int = 0
    random_selection: int = 0


class _NeighborTables:
    """Flat-index neighbor lists per cell, in the fixed lattice order."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n_cells
        self.nn: list[tuple[int, ...]] = [()] * n
        self.nnn: list[tuple[int, ...]] = [()] * n
        for i in range(n):
            c = grid.unflat(i)
            self.nn[i] = tuple(grid.flat(x) for x in nearest_neighbors(grid, c))
            self.nnn[i] = tuple(grid.flat(x) for x in next_nearest_neighbors(grid, c))


_tables_cache: dict[tuple[int, int], _NeighborTables] = {}


def _tables(grid: Grid) -> _NeighborTables:
    key = (grid.height, grid.width)
    if key not in _tables_cache:
        _tables_cache[key] = _NeighborTables(grid)
    return _tables_cache[key]


def cca2d_update(
    grid: Grid,
    pwm: PwmGrid,
    cs: np.ndarray,
    fluct_budget: int,
    rng: np.random.Generator,
) -> tuple[PwmGrid, ChemitEventCounts]:
    """Digital phase of the 2D automaton.

    For every core, in row-major order: gather the neighbors (nearest and
    next-nearest) whose chemical state is high; with several candidates one
    is selected uniformly. A nearest candidate that is another core means
    competition (this core survives with probability 1/2, each party
    resolved in its own iteration); a nearest non-core candidate means
    propagation (the core moves there, leaving a fluctuation behind); a
    next-nearest non-core candidate means replication (a second core
    appears there and the original survives). A core with no high
    neighbor, or whose candidate is a distant core, simply persists.

    A second pass turns on every new core's four interfaces and paints its
    unfrozen non-core neighbors HALO; a core cell is never repainted as
    halo, so adjacent survivors coexist. Finally `fluct_budget` of the
    still-unfrozen cells become FLUCT (clamped with a warning if the budget
    exceeds the unfrozen count).
    """
    if fluct_budget < 0:
        raise ValueError("fluct_budget must be >= 0")
    h, w = grid.height, grid.width
    tab = _tables(grid)
    old = np.ascontiguousarray(pwm.classes).reshape(-1)
    cs_flat = np.asarray(cs, dtype=np.uint8).reshape(-1)
    if cs_flat.shape != old.shape:
        raise ValueError("chemical-state grid does not match the PWM grid")

    new = np.zeros_like(old)
    freeze = np.zeros(old.shape[0], dtype=bool)
    iface_h = np.zeros((h, w), np.uint8)
    iface_v = np.zeros((h, w), np.uint8)
    counts = ChemitEventCounts()
    core = int(PwmClass.CORE)
    fluct = int(PwmClass.FLUCT)
    halo = int(PwmClass.HALO)

    for cell in np.flatnonzero(old == core):
        cell = int(cell)
        cand = [(j, True) for j in tab.nn[cell] if cs_flat[j]]
        cand += [(j, False) for j in tab.nnn[cell] if cs_flat[j]]
        if not cand:
            new[cell] = core
            continue
        if len(cand) > 1:
            counts.random_selection += 1
            pick, adjacent = cand[int(rng.integers(len(cand)))]
        else:
            pick, adjacent = cand[0]
        if adjacent and old[pick] == core:
            if rng.random() < 0.5:
                new[cell] = core
                counts.competition_survived += 1
            else:
                new[cell] = fluct
                counts.competition_died += 1
                counts.annihilation += 1
        elif adjacent:
            new[cell] = fluct
            freeze[cell] = True
            new[pick] = core
            counts.propagation += 1
        elif old[pick] != core:
            new[cell] = core
            new[pick] = core
            counts.replication += 1
        else:
            new[cell] = core

    for cell in np.flatnonzero(new == core):
        cell = int(cell)
        r, c = divmod(cell, w)
        iface_h[r, c] = 1
        iface_h[r, (c - 1) % w] = 1
        iface_v[r, c] = 1
        iface_v[(r - 1) % h, c] = 1
        for p in tab.nn[cell]:
            if not freeze[p] and new[p] != core:
                new[p] = halo
                freeze[p] = True
        freeze[cell] = True

    unfrozen = np.flatnonzero(~freeze)
    budget = fluct_budget
    if budget > unfrozen.size:
        warnings.warn(
            f"fluctuation budget {budget} exceeds {unfrozen.size} unfrozen cells; clamped",
            stacklevel=2,
        )
        budget = unfrozen.size
    if budget:
        chosen = rng.choice(unfrozen.size, size=budget, replace=False)
        new[unfrozen[chosen]] = fluct

    return PwmGrid(new.reshape(h, w), iface_h, iface_v), counts


def step_chemits(
    grid: Grid,
    pwm: PwmGrid,
    cs: np.ndarray,
    params: ChemModel2DParams | None = None,
    fluct_ratio: float = DEFAULT_FLUCT_RATIO,
    rng: np.random.Generator | None = None,
) -> tuple[PwmGrid, np.ndarray, ChemitEventCounts]:
    """One full automaton step: digital update, then chemical sampling."""
    params = params or ChemModel2DParams()
    if rng is None:
        rng = np.random.default_rng()
    budget = int(round(grid.n_cells * fluct_ratio))
    new_pwm, counts = cca2d_update(grid, pwm, cs, budget, rng)
    probs = prob_high_2d_grid(new_pwm.classes, np.asarray(cs), params)
    new_cs = (rng.random(probs.shape) < probs).astype(np.uint8)
    return new_pwm, new_cs, counts


def place_chemits(
    grid: Grid, n_chemits: int, rng: np.random.Generator
) -> tuple[PwmGrid, list[tuple[int, int]]]:
    """Seed `n_chemits` cores at distinct random cells, halos around each."""
    if n_chemits < 0 or n_chemits > grid.n_cells:
        raise ValueError(f"cannot place {n_chemits} chemits on {grid.n_cells} cells")
    pwm = PwmGrid.empty(grid)
    flat = pwm.classes.reshape(-1)
    sites = sorted(int(i) for i in rng.choice(grid.n_cells, size=n_chemits, replace=False))
    tab = _tables(grid)
    for cell in sites:
        flat[cell] = PwmClass.CORE
    for cell in sites:
        for p in tab.nn[cell]:
            if flat[p] != PwmClass.CORE:
                flat[p] = PwmClass.HALO
    return pwm, [divmod(s, grid.width) for s in sites]


@dataclass
class PopulationSeries:
    """One replica's trajectory: per-step core and high-CS counts."""

    seed: int
    grid_side: int
    initial_placement: list[tuple[int, int]]
    chemit_count: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    high_cs_count: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    events: list[ChemitEventCounts] = field(default_factory=list)


@dataclass
class PopulationResult:
    """Replica-aggregated population dynamics; raw series retained."""

    mean: np.ndarray
    std: np.ndarray
    series: list[PopulationSeries]

    def late_mean(self, last_steps: int) -> float:
        tail = np.stack([s.chemit_count[-last_steps:] for s in self.series])
        return float(tail.mean())


def run_population_experiment(
    grid_side: int,
    initial_chemits: int,
    steps: int,
    replicas: int,
    params: ChemModel2DParams | None = None,
    fluct_ratio: float = DEFAULT_FLUCT_RATIO,
    master_seed: int = 0,
) -> PopulationResult:
    """Independent seeded replicas of the population dynamics.

    Replica k runs on its own stream derived from the master seed; series
    are aggregated per step into mean and standard deviation.
    """
    from .harness import derive_seed

    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    grid = torus(grid_side)
    if initial_chemits > grid.n_cells:
        raise ValueError("more initial chemits than cells")
    params = params or ChemModel2DParams()
    all_series: list[PopulationSeries] = []
    for k in range(replicas):
        seed = derive_seed(master_seed, k)
        rng = np.random.default_rng(seed)
        pwm, placement = place_chemits(grid, initial_chemits, rng)
        cs = np.zeros((grid_side, grid_side), np.uint8)
        chemits = np.empty(steps + 1, int)
        high = np.empty(steps + 1, int)
        chemits[0] = int(np.count_nonzero(pwm.classes == PwmClass.CORE))
        high[0] = int(cs.sum())
        events: list[ChemitEventCounts] = []
        for t in range(steps):
            pwm, cs, counts = step_chemits(grid, pwm, cs, params, fluct_ratio, rng)
            chemits[t + 1] = int(np.count_nonzero(pwm.classes == PwmClass.CORE))
            high[t + 1] = int(cs.sum())
            events.append(counts)
        all_series.append(
            PopulationSeries(seed, grid_side, placement, chemits, high, events)
        )
    stacked = np.stack([s.chemit_count for s in all_series]).astype(float)
    return PopulationResult(stacked.mean(axis=0), stacked.std(axis=0), all_series)


_CLASS_CHARS = {PwmClass.OFF: ".", PwmClass.FLUCT: "f", PwmClass.HALO: "h", PwmClass.CORE: "C"}


def format_pwm_grid(pwm: PwmGrid) -> str:
    """Plain-text class grid snapshot, one character per cell."""
    return (
        "\n".join(
            "".join(_CLASS_CHARS[PwmClass(v)] for v in row) for row in pwm.classes
        )
        + "\n"
    )


def write_population_csv(path, series: PopulationSeries):
    """Per-step CSV: step, chemits, high_cs, propagation, replication, annihilation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "chemits", "high_cs", "propagation", "replication", "annihilation"])
        for t in range(len(series.chemit_count)):
            ev = series.events[t - 1] if t > 0 else ChemitEventCounts()
            writer.writerow(
                [
                    t,
                    int(series.chemit_count[t]),
                    int(series.high_cs_count[t]),
                    ev.propagation,
                    ev.replication,
                    ev.annihilation,
                ]
            )
