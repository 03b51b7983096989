"""2D chemical cellular automata: the Chemit engine.

A Chemit is a core cell (CORE class) plus the four HALO neighbors it
maintains. Each step, the digital state machine moves, copies or kills
cores based on where high chemical states appeared in the 12-cell
neighborhood (4 nearest + 8 next-nearest), rebuilds halos, and scatters
random fluctuations; the phenomenological chemical machine then samples
the next chemical-state grid. Periodic boundaries throughout. A step
maps the class grid and the chemical states to the next of each: the
interfacial stirrers around a core are folded into the 2D law
(`chemodel.table_2d`), which reads classes and previous chemical states
only. A population experiment takes one generator per replica from its
caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cca1d import raster_to_text
from .chemodel import ChemModel2DParams, PwmClass, prob_high_2d_grid
from .lattice import Grid, neighbor_table, torus

DEFAULT_FLUCT_RATIO = 0.1
_CORE, _FLUCT, _HALO = int(PwmClass.CORE), int(PwmClass.FLUCT), int(PwmClass.HALO)


@dataclass
class PwmGrid:
    """PWM class per cell, (height, width) int8 `PwmClass` values."""

    classes: np.ndarray

    @classmethod
    def empty(cls, grid: Grid) -> "PwmGrid":
        return cls(np.zeros((grid.height, grid.width), np.int8))


@dataclass
class ChemitEventCounts:
    propagation: int = 0
    replication: int = 0
    competition_survived: int = 0
    competition_died: int = 0
    annihilation: int = 0
    random_selection: int = 0
    merged: int = 0  # born cores that landed on the same cell as another
    fluct_clamped: int = 0  # budgeted FLUCT cells that found no unfrozen cell


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
    Candidates are gathered for all cores at once and only the draws run
    per core; an outcome writes either its own old core or an old non-core
    pick, so the outcomes are applied together afterwards.

    The nearest neighbors of every new core then become HALO unless they
    are new cores or cells that a core propagated from. Finally
    `fluct_budget` of the still-unfrozen cells become FLUCT (clamped with a
    warning if the budget exceeds the unfrozen count). The result holds the
    new classes only: the interfaces a core turns on are part of the 2D law.
    """
    if fluct_budget < 0:
        raise ValueError("fluct_budget must be >= 0")
    h, w = grid.height, grid.width
    nb = neighbor_table(h, w)
    old = np.ascontiguousarray(pwm.classes).reshape(-1)
    cs_flat = np.asarray(cs, dtype=np.uint8).reshape(-1)
    if cs_flat.shape != old.shape:
        raise ValueError("chemical-state grid does not match the PWM grid")
    counts = ChemitEventCounts()

    was_core = old == _CORE
    cores = was_core.nonzero()[0]
    rows = nb[cores]
    high = (rows >= 0) & (cs_flat[rows] != 0)
    owner, col = high.nonzero()  # candidates, core by core, in table order
    cand = rows[high]
    adjacent, cand_is_core = (col < 4).tolist(), was_core[cand].tolist()
    cand = cand.tolist()
    died, moved, born = [], [], []
    first = 0  # index of this core's first candidate
    for cell, k in zip(cores.tolist(), np.bincount(owner, minlength=cores.size).tolist()):
        if not k:
            continue
        j = first
        if k > 1:
            counts.random_selection += 1
            j += int(rng.integers(k))
        first += k
        if adjacent[j] and cand_is_core[j]:
            if rng.random() < 0.5:
                counts.competition_survived += 1
            else:
                died.append(cell)
        elif adjacent[j]:
            moved.append(cell)
            born.append(cand[j])
        elif not cand_is_core[j]:
            born.append(cand[j])
    counts.competition_died = counts.annihilation = len(died)
    counts.propagation = len(moved)
    counts.replication = len(born) - len(moved)
    counts.merged = len(born) - len(set(born))

    new = old * was_core
    if died or born:  # most steps change no core; an empty fancy index is not free
        new[died + moved] = _FLUCT
        new[born] = _CORE
    frozen = new == _CORE
    ring = nb[frozen.nonzero()[0], :4]  # the nearest neighbors of every new core
    frozen[moved] = True  # a cell a core moved from keeps its FLUCT
    halo_cells = ring[~frozen[ring]]
    new[halo_cells] = _HALO
    frozen[halo_cells] = True

    unfrozen = (~frozen).nonzero()[0]
    budget = fluct_budget
    if budget > unfrozen.size:
        warnings.warn(
            f"fluctuation budget {budget} exceeds {unfrozen.size} unfrozen cells; clamped",
            stacklevel=2,
        )
        budget = unfrozen.size
        counts.fluct_clamped = fluct_budget - budget
    if budget:
        chosen = rng.choice(unfrozen.size, size=budget, replace=False)
        new[unfrozen[chosen]] = _FLUCT

    return PwmGrid(new.reshape(h, w)), counts


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


def place_chemits(grid: Grid, n_chemits: int, rng: np.random.Generator) -> PwmGrid:
    """Seed `n_chemits` cores at distinct random cells, halos around each."""
    if n_chemits < 0 or n_chemits > grid.n_cells:
        raise ValueError(f"cannot place {n_chemits} chemits on {grid.n_cells} cells")
    pwm = PwmGrid.empty(grid)
    flat = pwm.classes.reshape(-1)
    sites = rng.choice(grid.n_cells, size=n_chemits, replace=False)
    flat[neighbor_table(grid.height, grid.width)[sites, :4]] = PwmClass.HALO
    flat[sites] = PwmClass.CORE
    return pwm


@dataclass
class PopulationSeries:
    """One replica's trajectory: per-step core and high-CS counts, and the
    events of each step."""

    chemit_count: np.ndarray
    high_cs_count: np.ndarray
    events: list[ChemitEventCounts]


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
    rngs: list[np.random.Generator],
    params: ChemModel2DParams | None = None,
    fluct_ratio: float = DEFAULT_FLUCT_RATIO,
) -> PopulationResult:
    """Independent replicas of the population dynamics, replica k drawing
    from rngs[k]; series are aggregated per step into mean and standard
    deviation.
    """
    if not rngs:
        raise ValueError("at least one replica generator required")
    grid = torus(grid_side)
    if initial_chemits > grid.n_cells:
        raise ValueError("more initial chemits than cells")
    params = params or ChemModel2DParams()
    all_series: list[PopulationSeries] = []
    for rng in rngs:
        pwm = place_chemits(grid, initial_chemits, rng)
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
        all_series.append(PopulationSeries(chemits, high, events))
    stacked = np.stack([s.chemit_count for s in all_series]).astype(float)
    return PopulationResult(stacked.mean(axis=0), stacked.std(axis=0), all_series)


def format_pwm_grid(pwm: PwmGrid) -> str:
    """Plain-text class grid snapshot, one character per cell."""
    return raster_to_text(pwm.classes, ".fhC")
