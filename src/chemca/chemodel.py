"""Probabilistic chemical state machine: P(next chemical state is high).

Phenomenological models for three settings: a 1D chain driven by binary
cell/interfacial stirrer bits, a 2D torus driven by four-level PWM classes
with hysteresis, and an isolated cell with retention. Each law is written
once and read by every caller from a table over all its inputs:
`table_1d` (32 entries, code s_c | s_l<<1 | s_r<<2 | i_l<<3 | i_r<<4),
`table_2d` (2048 entries, code center | left<<2 | right<<4 | up<<6 |
down<<8 | prev_cs<<10) and `table_single` (2x2, [commanded, prev_cs]).
Evaluation is pure; callers sample with their own RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np


class PwmClass(IntEnum):
    """Four-level cell stirrer class.

    OFF leaves the cell quiet, FLUCT drives weak random fluctuations, HALO
    is the interaction ring around a core, CORE drives strong oscillation.
    Their PWM duty values in the paper's rig are 0, 22, 30 and 50.
    """

    OFF = 0
    FLUCT = 1
    HALO = 2
    CORE = 3


@dataclass(frozen=True)
class ChemModel2DParams:
    """2D high-state probability parameters (published defaults).

    p1..p4 weight the neighbor cascade, q1..q4 weight the cell's own class
    (off / fluct / core / halo), and the hysteresis factor is k_low when
    the previous chemical state was 0, k_high when it was 1.
    """

    p1: float = 0.5
    p2: float = 0.3
    p3: float = 0.25
    p4: float = 0.1
    q1: float = 0.0
    q2: float = 0.1
    q3: float = 0.5
    q4: float = 0.5
    k_low: float = 0.7
    k_high: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name}={v} outside [0, 1]")


@dataclass(frozen=True)
class SingleCellHysteresisParams:
    """Isolated-cell readout fidelity: chance the chemical state tracks
    the commanded bit; a high state may be retained after the command drops."""

    p_read: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.p_read <= 1.0:
            raise ValueError("p_read must be in [0, 1]")


def prob_high_1d(s_c: int, s_l: int, s_r: int, i_l: int, i_r: int) -> float:
    """High-state probability for one cell of the 1D chain.

    First-match evaluation of the eight published stirrer conditions, in
    published order. Patterns matching none of them get probability 0: with
    no hydrodynamic path from an active source there is no coupling.
    """
    if s_c:
        return 1.0
    if s_l == 0 and s_r == 0:
        return 0.0
    if i_l == 0 and i_r == 0:
        return 0.0
    if s_l and s_r and i_l and i_r:
        return 0.8
    if s_l and i_l and not i_r:
        return 0.5
    if s_r and i_r and not i_l:
        return 0.5
    if s_l and not s_r and i_l:
        return 0.5
    if not s_l and s_r and i_r:
        return 0.5
    return 0.0


@lru_cache(maxsize=1)
def table_1d() -> np.ndarray:
    """`prob_high_1d` tabulated over all 32 stirrer patterns (code layout in
    the module docstring), built on first use."""
    table = np.array([prob_high_1d(*((code >> b) & 1 for b in range(5))) for code in range(32)], float)
    table.flags.writeable = False
    return table


def _cascade(n_core: int, n_halo: int, n_off: int, p: ChemModel2DParams) -> float:
    if n_core >= 3:
        return p.p1
    if n_core >= 1:
        return p.p2
    if n_halo >= 3:
        return p.p3
    if n_halo >= 1 and n_off <= 3:
        return p.p4
    return 0.0


def _law_2d(center: int, neighbors: list[int], prev_cs: int, p: ChemModel2DParams) -> float:
    """The 2D law: hysteresis factor times the class weight, times the
    neighbor cascade unless the cell is a core."""
    k = p.k_low if prev_cs == 0 else p.k_high
    if center == PwmClass.CORE:
        return k * p.q3
    q = {PwmClass.OFF: p.q1, PwmClass.FLUCT: p.q2, PwmClass.HALO: p.q4}[center]
    counts = (neighbors.count(x) for x in (PwmClass.CORE, PwmClass.HALO, PwmClass.OFF))
    return k * (q * _cascade(*counts, p))


@lru_cache(maxsize=64)
def table_2d(params: ChemModel2DParams) -> np.ndarray:
    """The 2D law tabulated over all 2048 codes (layout in the module docstring).

    The law reads the neighbors as a multiset, so it is evaluated once per
    (center, sorted neighbors, prev_cs) and written to every ordering.
    """
    table = np.empty((2, 4, 4, 4, 4, 4))  # [prev_cs, down, up, right, left, center]: the code's digits
    for center, prev_cs in product(range(4), (0, 1)):
        for neighbors in combinations_with_replacement(range(4), 4):
            value = _law_2d(center, list(neighbors), prev_cs, params)
            for left, right, up, down in set(permutations(neighbors)):
                table[prev_cs, down, up, right, left, center] = value
    table = table.reshape(-1)
    table.flags.writeable = False
    return table


def prob_high_2d_grid(
    classes: np.ndarray, prev_cs: np.ndarray, params: ChemModel2DParams | None = None
) -> np.ndarray:
    """The 2D law over an (h, w) torus of PWM classes, or over a (..., h, w)
    stack of tori; the 4-neighbors wrap within each torus."""
    table = table_2d(params or ChemModel2DParams())
    c = np.asarray(classes)
    h, w = c.shape[-2:]
    pad = np.empty((*c.shape[:-2], h + 2, w + 2), np.uint16)  # each torus wrapped in a one-cell border
    pad[..., 1:-1, 1:-1] = c
    pad[..., 0, 1:-1], pad[..., -1, 1:-1] = c[..., -1, :], c[..., 0, :]
    pad[..., 1:-1, 0], pad[..., 1:-1, -1] = c[..., :, -1], c[..., :, 0]
    # read flat, a cell's left and right lie 1 place away, up and down w + 2
    flat, step = pad.reshape(-1), w + 2
    code = np.empty_like(pad)
    run = code.reshape(-1)[step:-step]  # every cell with a row above and below; borders are discarded
    np.left_shift(flat[step + 1 : 1 - step], 4, out=run)  # right
    run |= flat[step - 1 : -1 - step] << 2  # left
    run |= flat[: -2 * step] << 6  # up
    run |= flat[2 * step :] << 8  # down
    run |= flat[step:-step]  # center
    code = code[..., 1:-1, 1:-1] | np.left_shift(np.asarray(prev_cs) != 0, 10, dtype=np.uint16)
    return table[code.astype(np.intp)]


def table_single(params: SingleCellHysteresisParams) -> np.ndarray:
    """Isolated-cell law, indexed [commanded, prev_cs].

    A high command excites with p_read; after the command drops, an
    existing high state is retained with the complement 1 - p_read; a quiet
    cell with no history stays quiet.
    """
    return np.array([[0.0, 1.0 - params.p_read], [params.p_read, params.p_read]])

