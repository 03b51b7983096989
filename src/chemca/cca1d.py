"""1D chemical cellular automata: 4096-rule family and space-time rasters.

A rule is a pair: a Wolfram-style cell rule (0-255) mapping chemical-state
triples to the cell stirrer bit, and an interface rule (0-15) mapping the
ordered pair of adjoining chemical states to the interfacial stirrer bit.
Each step runs the digital rule machine, then the probabilistic chemical
machine. Display-screen mode short-circuits the chemistry: chemical states
mirror the commanded stirrer bits one-to-one.

Both phases of a cell depend only on the chemical states of cells i-2..i+2.
A step reads each cell's window as one base-3 code, where the third symbol,
`VIRTUAL`, stands for a cell beyond the ends of an open chain (no stirrer,
no interface; a periodic chain wraps instead), and looks the code up in
three per-rule tables: the cell's stirrer bit, its right interface bit and
its high-state probability. The tables are derived from `apply_rule_a`,
`apply_rule_b` and `chemodel.table_1d` on first use of a rule and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chemodel import table_1d
from .lattice import Grid, line

MODE_PROBABILISTIC = "probabilistic"
MODE_DISPLAY = "display"
VIRTUAL = 2  # the window symbol of a cell beyond the ends of an open chain
_VIRTUAL_CELL = np.array([VIRTUAL], np.uint8)
_WEIGHTS = np.array([81, 27, 9, 3, 1], np.uint8)  # window code of cells i-2..i+2, at most 242 < 2^8


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


@lru_cache(maxsize=16)
def _windows(width: int, periodic: bool) -> np.ndarray:
    """(5, width) indices of cells i-2..i+2 of every cell i, into the chain's
    chemical states followed by one virtual cell (index `width`): a periodic
    chain wraps, an open chain reads the virtual cell beyond its ends."""
    if periodic:
        ring = np.arange(-2, width + 2) % width
    else:
        ring = np.concatenate(([width, width], np.arange(width), [width, width]))
    at = np.stack([ring[d : d + width] for d in range(5)])
    at.flags.writeable = False
    return at


@lru_cache(maxsize=16)
def _rule_tables(rule: Rule1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rule tables over the 3^5 window codes of cells i-2..i+2: cell i's
    stirrer bit (from cells i-1..i+1, by `apply_rule_a`), its right
    interface bit (from cells i and i+1, by `apply_rule_b`) and its P(high)
    (from `table_1d`, over the stirrer bits of cells i-1, i and i+1 and the
    interface bits on either side of cell i). A virtual cell reads as
    chemical state 0 to its neighbours' rules and has no stirrer and no
    interface."""
    symbols = range(3)

    def state(s):
        return 0 if s == VIRTUAL else s

    # stir[l, c, r]: stirrer bit of a cell c between l and r; iface[a, b]: interface bit of a | b
    stir = np.array([[[0 if c == VIRTUAL else apply_rule_a(rule.rule_a, state(l), c, state(r))
                       for r in symbols] for c in symbols] for l in symbols], np.uint8)
    iface = np.array([[0 if VIRTUAL in (a, b) else apply_rule_b(rule.rule_b, a, b)
                       for b in symbols] for a in symbols], np.uint8)
    # window axes are cells i-2..i+2
    s_l, s_c, s_r = stir[:, :, :, None, None], stir[None, :, :, :, None], stir[None, None, :, :, :]
    i_l, i_r = iface[None, :, :, None, None], iface[None, None, :, :, None]
    code = s_c | s_l << 1 | s_r << 2 | i_l << 3 | i_r << 4
    tables = (
        np.broadcast_to(s_c, code.shape).ravel(),
        np.broadcast_to(i_r, code.shape).ravel(),
        table_1d()[code.ravel()],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def step_1d(
    grid: Grid,
    state: Cca1dState,
    rule: Rule1D,
    rng: np.random.Generator,
    mode: str = MODE_PROBABILISTIC,
) -> Cca1dState:
    """One synchronous step: rule phase, then chemical phase.

    Each cell's 5-cell window of chemical states is one base-3 code, which
    indexes the rule's tables for its stirrer bit, its right interface bit
    and its high-state probability. Cells beyond the ends of an open chain
    are virtual: no stirrer, no interface, and state 0 to their neighbours'
    rules. One uniform draw per cell, in index order.
    """
    stir_table, iface_table, prob_table = _rule_tables(rule)
    cells = np.concatenate((state.cs, _VIRTUAL_CELL)).take(_windows(grid.width, grid.periodic))
    code = _WEIGHTS @ cells
    stir = stir_table.take(code)
    # interface j joins cells j and j + 1, wrapping only on a periodic chain
    iface = iface_table.take(code[: grid.width if grid.periodic else grid.width - 1])
    if mode == MODE_DISPLAY:
        new_cs = stir.copy()
    elif mode == MODE_PROBABILISTIC:
        new_cs = (rng.random(grid.width) < prob_table.take(code)).view(np.uint8)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return Cca1dState(new_cs, stir, iface)


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
    """Compact text grid: one character per cell, one line per step.

    Built as one uint8 array from a byte table of the characters' UTF-8
    forms. 0xFF, which UTF-8 never uses, pads the shorter forms to one
    width, and the decoder drops it."""
    symbols = [c.encode() for c in chars]
    size = max(map(len, symbols))
    lut = np.frombuffer(b"".join(s.ljust(size, b"\xff") for s in symbols), np.uint8).reshape(-1, size)
    rows, cols = raster.shape
    text = np.full((rows, cols * size + 1), ord("\n"), np.uint8)
    text[:, :-1] = lut[raster].reshape(rows, -1)
    return text.tobytes().decode(errors="ignore")


def default_chain(width: int = 7) -> Grid:
    """The default 1D rig: non-periodic 7-cell chain."""
    return line(width, periodic=False)
