"""1D chemical cellular automata: 4096-rule family and space-time rasters.

A rule is a pair: a Wolfram-style cell rule (0-255) mapping chemical-state
triples to the cell stirrer bit, and an interface rule (0-15) mapping the
ordered pair of adjoining chemical states to the interfacial stirrer bit.
Each step runs the digital rule machine, then the probabilistic chemical
machine. Display-screen mode short-circuits the chemistry: chemical states
mirror the commanded stirrer bits one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemodel import table_1d
from .lattice import Grid, line

MODE_PROBABILISTIC = "probabilistic"
MODE_DISPLAY = "display"

@dataclass(frozen=True)
class Rule1D:
    """Cell rule x interface rule, displayed as "A-{i}" with i = rule_b + 1."""

    rule_a: int
    rule_b: int

    def __post_init__(self):
        if not 0 <= self.rule_a < 256:
            raise ValueError("rule_a must be in 0..255")
        if not 0 <= self.rule_b < 16:
            raise ValueError("rule_b must be in 0..15")

    @property
    def label(self) -> str:
        return f"{self.rule_a}-{self.rule_b + 1}"

    @classmethod
    def from_label(cls, label: str) -> "Rule1D":
        try:
            a, i = label.split("-")
            rule_a, idx = int(a), int(i)
        except ValueError:
            raise ValueError(f"rule label {label!r} is not of the form 'A-i'") from None
        if not 1 <= idx <= 16:
            raise ValueError("interface rule index must be in 1..16")
        return cls(rule_a, idx - 1)


def apply_rule_a(rule_a: int, l: int, c: int, r: int) -> int:
    """Wolfram lookup: bit 4l + 2c + r of the 8-bit rule."""
    return (rule_a >> (4 * l + 2 * c + r)) & 1


def apply_rule_b(rule_b: int, a: int, b: int) -> int:
    """Interface lookup: bit 2a + b of the 4-bit rule, for the ordered
    pair (upstream cell, downstream cell) in row order."""
    return (rule_b >> (2 * a + b)) & 1


@dataclass
class Cca1dState:
    """Chemical states plus the stirrer bits commanded at the last step."""

    cs: np.ndarray
    cell_stirrers: np.ndarray
    iface_stirrers: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, grid: Grid, cs) -> "Cca1dState":
        cs = np.asarray(cs, dtype=np.uint8)
        if cs.shape != (grid.width,):
            raise ValueError("initial chemical states must match the chain length")
        n_iface = grid.width if grid.periodic else grid.width - 1
        return cls(cs, np.zeros(grid.width, np.uint8), np.zeros(max(n_iface, 0), np.uint8))


def single_seed(width: int) -> np.ndarray:
    cs = np.zeros(width, np.uint8)
    cs[width // 2] = 1
    return cs


def _neighbors(x: np.ndarray, periodic: bool):
    """Left and right neighbor of every cell; 0 beyond the ends of an open chain."""
    zero = np.zeros(1, x.dtype)
    padded = np.concatenate((x[-1:], x, x[:1]) if periodic else (zero, x, zero))
    return padded[:-2], padded[2:]


def _rule_phase(grid: Grid, cs: np.ndarray, rule: Rule1D):
    """Digital phase: new cell and interface stirrer bits from chemical states.

    Interface j joins cells j and j + 1, wrapping only on a periodic chain."""
    left, right = _neighbors(cs, grid.periodic)
    stir = apply_rule_a(rule.rule_a, left, cs, right)
    iface = apply_rule_b(rule.rule_b, cs, right)
    return stir, (iface if grid.periodic else iface[:-1])


def step_1d(
    grid: Grid,
    state: Cca1dState,
    rule: Rule1D,
    rng: np.random.Generator,
    mode: str = MODE_PROBABILISTIC,
) -> Cca1dState:
    """One synchronous step: rule phase, then chemical phase.

    Non-periodic boundary cells see virtual neighbors with chemical state 0
    and inactive interfaces. The chemistry reads each cell's high-state
    probability from `table_1d`; one uniform draw per cell, in index order.
    """
    stir, iface = _rule_phase(grid, state.cs, rule)
    if mode == MODE_DISPLAY:
        new_cs = stir.copy()
    elif mode == MODE_PROBABILISTIC:
        s_l, s_r = _neighbors(stir, grid.periodic)
        # each cell's right interface; an open chain's last cell has none
        i_r = iface if grid.periodic else np.append(iface, np.uint8(0))
        i_l, _ = _neighbors(i_r, grid.periodic)
        probs = table_1d()[stir | s_l << 1 | s_r << 2 | i_l << 3 | i_r << 4]
        new_cs = (rng.random(grid.width) < probs).astype(np.uint8)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return Cca1dState(new_cs, stir, iface, state.step + 1)


def run_1d(
    grid: Grid,
    init_cs,
    rule: Rule1D,
    steps: int,
    mode: str = MODE_PROBABILISTIC,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Space-time raster of chemical states, row 0 the initial condition."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if rng is None:
        rng = np.random.default_rng()
    state = Cca1dState.initial(grid, init_cs)
    raster = np.empty((steps + 1, grid.width), np.uint8)
    raster[0] = state.cs
    for t in range(steps):
        state = step_1d(grid, state, rule, rng, mode=mode)
        raster[t + 1] = state.cs
    return raster


def raster_to_text(raster: np.ndarray, chars: str = ".#") -> str:
    """Compact text grid: one character per cell, one line per step."""
    lut = np.array(list(chars), dtype=object)
    # one lookup per row: a whole-raster lookup holds a pointer per cell
    return "\n".join(["".join(lut[row].tolist()) for row in raster]) + "\n"


def default_chain(width: int = 7) -> Grid:
    """The default 1D rig: non-periodic 7-cell chain."""
    return line(width, periodic=False)
