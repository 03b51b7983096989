"""2D chemical cellular automata: the Chemit engine.

A Chemit is a core cell (CORE class) plus the four HALO neighbors it
maintains. Each step, the digital state machine moves, copies or kills
cores based on where high chemical states appeared in the 12-cell
neighborhood (4 nearest + 8 next-nearest), rebuilds halos, and scatters
random fluctuations; the phenomenological chemical machine then samples
the next chemical-state grid. A torus is the shape of its class array:
an (h, w) array wraps in both directions, and every function reads h
and w from it. A step maps the class grid and the chemical states to
the next of each: the interfacial stirrers around a core are folded
into the 2D law (`chemodel.table_2d`), which reads classes and previous
chemical states only.

A step takes one (h, w) torus with one generator, or a batch of R tori
stacked as (R, h, w) with one generator per torus: the array work runs
once for the whole batch and only the draws run per torus, each torus
drawing its core outcomes, then its fluctuations, then its chemical
states, in the order it would alone. A population experiment steps its
replicas as one batch, one generator per replica from its caller, and
keeps each replica's events as a (steps, 8) table whose columns are
`EVENT_FIELDS`.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .cca1d import raster_to_text
from .chemodel import ChemModel2DParams, PwmClass, prob_high_2d_grid
from .lattice import neighbor_table

DEFAULT_FLUCT_RATIO = 0.1
_OFF, _FLUCT, _HALO, _CORE = map(int, PwmClass)


@dataclass
class PwmGrid:
    """PWM class per cell, (height, width) int8 `PwmClass` values."""

    classes: np.ndarray


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


EVENT_FIELDS = tuple(f.name for f in fields(ChemitEventCounts))  # the columns of an event table


def _generators(classes: np.ndarray, rng) -> list:
    """The generator of each torus: `rng` itself for one (h, w) torus."""
    return [rng] if classes.ndim == 2 else rng


def cca2d_update(
    pwm: PwmGrid,
    cs: np.ndarray,
    fluct_budget: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    events: np.ndarray | None = None,
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
    `fluct_budget` of the still-unfrozen cells of each torus become FLUCT
    (clamped with a warning if the budget exceeds the unfrozen count). The result holds the
    new classes only: the interfaces a core turns on are part of the 2D law.

    `pwm.classes` and `cs` are one (h, w) torus drawing from the generator
    `rng`, or a batch of R tori, (R, h, w), torus k drawing from `rng[k]`
    exactly as it would alone. The counts returned are summed over the
    batch; row k of `events`, an (R, 8) table, receives torus k's counts in
    `EVENT_FIELDS` order.
    """
    if fluct_budget < 0:
        raise ValueError("fluct_budget must be >= 0")
    old = np.ascontiguousarray(pwm.classes)
    rngs = _generators(old, rng)
    h, w = old.shape[-2:]
    n = h * w
    nb = neighbor_table(h, w, len(rngs))
    old = old.reshape(-1)
    cs_flat = np.asarray(cs, dtype=np.uint8).reshape(-1)
    if old.size != nb.shape[0] or cs_flat.shape != old.shape:
        raise ValueError("PWM grid, chemical states and generators do not match")
    tally = [[0] * 8 for _ in rngs]  # per torus, in EVENT_FIELDS order

    was_core = old == _CORE
    cores = was_core.nonzero()[0]
    rows = nb[cores]
    high = (rows >= 0) & (cs_flat[rows] != 0)
    owner, col = high.nonzero()  # candidates, core by core, in table order
    cand = rows[high]
    adjacent, cand_is_core = (col < 4).tolist(), was_core[cand].tolist()
    cand = cand.tolist()
    died, moved, born = [], [], set()
    first = 0  # index of this core's first candidate
    limit = 0  # the end of the current core's torus
    for cell, k in zip(cores.tolist(), np.bincount(owner, minlength=cores.size).tolist()):
        if not k:
            continue
        if cell >= limit:  # the first busy core of a torus
            r = cell // n
            limit, counts, draw = (r + 1) * n, tally[r], rngs[r]
        j = first
        first += k
        if k > 1:
            counts[5] += 1  # random_selection
            j += int(draw.integers(k))
        if adjacent[j] and cand_is_core[j]:
            if draw.random() < 0.5:
                counts[2] += 1  # competition_survived
            else:
                died.append(cell)
                counts[3] += 1  # competition_died
                counts[4] += 1  # annihilation
            continue
        if adjacent[j]:
            moved.append(cell)
            counts[0] += 1  # propagation
        elif cand_is_core[j]:
            continue
        else:
            counts[1] += 1  # replication
        if cand[j] in born:
            counts[6] += 1  # merged
        born.add(cand[j])

    # A dead core's cell stays free (OFF) until the fluctuations are placed;
    # a cell a core moved from is frozen with its FLUCT.
    new = old * was_core
    if died:
        new[died] = _OFF
    if moved:
        new[moved] = _FLUCT
    if born:
        new[list(born)] = _CORE
    ring = nb[(new == _CORE).nonzero()[0], :4]  # the nearest neighbors of every new core
    new[ring[new[ring] == _OFF]] = _HALO
    for counts, draw, cells, is_free in zip(tally, rngs, new.reshape(-1, n), (new == _OFF).reshape(-1, n)):
        free = is_free.nonzero()[0]
        budget = fluct_budget
        if budget > free.size:
            warnings.warn(
                f"fluctuation budget {budget} exceeds {free.size} unfrozen cells; clamped",
                stacklevel=2,
            )
            budget = free.size
            counts[7] = fluct_budget - budget  # fluct_clamped
        if budget:
            cells[free[draw.choice(free.size, size=budget, replace=False)]] = _FLUCT
    if died:
        new[died] = np.maximum(new[died], _FLUCT)  # a dead core not made HALO is FLUCT

    if events is not None:
        events[...] = tally
    return PwmGrid(new.reshape(pwm.classes.shape)), ChemitEventCounts(*map(sum, zip(*tally)))


def step_chemits(
    pwm: PwmGrid,
    cs: np.ndarray,
    params: ChemModel2DParams | None = None,
    fluct_ratio: float = DEFAULT_FLUCT_RATIO,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    events: np.ndarray | None = None,
) -> tuple[PwmGrid, np.ndarray, ChemitEventCounts]:
    """One full automaton step: digital update, then chemical sampling.

    A batch of tori steps as one (see `cca2d_update`): each torus draws its
    update, then its chemical states, from its own generator.
    """
    params = params or ChemModel2DParams()
    if rng is None:
        rng = np.random.default_rng()
    h, w = pwm.classes.shape[-2:]
    budget = int(round(h * w * fluct_ratio))
    # by keyword: perfbench's cca2d_update hook reads `pwm` from its keywords or its second argument
    new_pwm, counts = cca2d_update(pwm=pwm, cs=cs, fluct_budget=budget, rng=rng, events=events)
    probs = prob_high_2d_grid(new_pwm.classes, cs, params)
    draws = np.empty(probs.shape)
    for draw, out in zip(_generators(probs, rng), draws.reshape(-1, h * w)):
        draw.random(out=out)
    return new_pwm, (draws < probs).view(np.uint8), counts


def place_chemits(side: int, n_chemits: int, rng: np.random.Generator) -> PwmGrid:
    """Seed `n_chemits` cores at distinct random cells of a side x side
    torus, halos around each."""
    n = side * side
    if side < 1 or not 0 <= n_chemits <= n:
        raise ValueError(f"cannot place {n_chemits} chemits on {n} cells")
    classes = np.zeros((side, side), np.int8)
    flat = classes.reshape(-1)
    sites = rng.choice(n, size=n_chemits, replace=False)
    flat[neighbor_table(side, side)[sites, :4]] = PwmClass.HALO
    flat[sites] = PwmClass.CORE
    return PwmGrid(classes)


@dataclass
class PopulationSeries:
    """One replica's trajectory: per-step core and high-CS counts, and the
    event counts of each step, (steps, 8) in `EVENT_FIELDS` order."""

    chemit_count: np.ndarray
    high_cs_count: np.ndarray
    events: np.ndarray


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
    from rngs[k], stepped together as one batch; series are aggregated per
    step into mean and standard deviation.
    """
    if not rngs:
        raise ValueError("at least one replica generator required")
    params = params or ChemModel2DParams()
    pwm = PwmGrid(np.stack([place_chemits(grid_side, initial_chemits, rng).classes for rng in rngs]))
    cs = np.zeros(pwm.classes.shape, np.uint8)
    chemits = np.empty((len(rngs), steps + 1), int)
    high = np.zeros((len(rngs), steps + 1), int)
    events = np.empty((len(rngs), steps, len(EVENT_FIELDS)), int)
    chemits[:, 0] = initial_chemits
    for t in range(steps):
        pwm, cs, _ = step_chemits(pwm, cs, params, fluct_ratio, rngs, events[:, t])
        chemits[:, t + 1] = (pwm.classes == _CORE).reshape(len(rngs), -1).sum(1, dtype=np.int32)
        high[:, t + 1] = cs.reshape(len(rngs), -1).sum(1, dtype=np.int32)
    all_series = [PopulationSeries(*series) for series in zip(chemits, high, events)]
    return PopulationResult(chemits.mean(axis=0), chemits.std(axis=0), all_series)


def format_pwm_grid(pwm: PwmGrid) -> str:
    """Plain-text class grid snapshot, one character per cell."""
    return raster_to_text(pwm.classes, ".fhC")
