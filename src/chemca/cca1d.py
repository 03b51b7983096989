"""1D chemical cellular automata: 4096-rule family and space-time rasters.

A rule is a pair: a Wolfram-style cell rule (0-255) mapping chemical-state
triples to the cell stirrer bit, and an interface rule (0-15) mapping the
ordered pair of adjoining chemical states to the interfacial stirrer bit.
Each step runs the digital rule machine, then the probabilistic chemical
machine. Display-screen mode short-circuits the chemistry: chemical states
mirror the commanded stirrer bits one-to-one.

A step maps chemical states to chemical states; the stirrer bits it
commands only carry the dynamics from one step to the next. Both phases of
a cell depend only on the chemical states of cells i-2..i+2. A step reads
each cell's window as one base-3 code, where the third symbol, `VIRTUAL`,
stands for a cell beyond the ends of an open chain (no stirrer, no
interface; a periodic chain wraps instead), and looks the code up in one
of two per-rule tables: the cell's stirrer bit in display mode, its
high-state probability in probabilistic mode. The tables are derived from
`apply_rule_a`, `apply_rule_b` and `chemodel.table_1d` on first use of a
rule and cached.
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
def _rule_tables(rule: Rule1D) -> tuple[np.ndarray, np.ndarray]:
    """Per-rule tables over the 3^5 window codes of cells i-2..i+2: cell i's
    stirrer bit (from cells i-1..i+1, by `apply_rule_a`) and its P(high)
    (from `table_1d`, over the stirrer bits of cells i-1, i and i+1 and the
    interface bits on either side of cell i, by `apply_rule_b`). A virtual
    cell reads as chemical state 0 to its neighbours' rules and has no
    stirrer and no interface."""
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
    tables = np.broadcast_to(s_c, code.shape).ravel(), table_1d()[code.ravel()]
    for table in tables:
        table.flags.writeable = False
    return tables


def step_1d(
    grid: Grid,
    cs: np.ndarray,
    rule: Rule1D,
    rng: np.random.Generator,
    mode: str = MODE_PROBABILISTIC,
) -> np.ndarray:
    """One synchronous step: the chain's next chemical states.

    Each cell's 5-cell window of chemical states is one base-3 code. In
    display mode it indexes the rule's stirrer-bit table; in probabilistic
    mode it indexes the rule's high-state probability table, which folds in
    the rule phase, and each cell takes one uniform draw, in index order.
    Cells beyond the ends of an open chain are virtual: no stirrer, no
    interface, and state 0 to their neighbours' rules.
    """
    stir_table, prob_table = _rule_tables(rule)
    cells = np.concatenate((cs, _VIRTUAL_CELL)).take(_windows(grid.width, grid.periodic))
    code = _WEIGHTS @ cells
    if mode == MODE_DISPLAY:
        return stir_table.take(code)
    if mode == MODE_PROBABILISTIC:
        return (rng.random(grid.width) < prob_table.take(code)).view(np.uint8)
    raise ValueError(f"unknown mode: {mode!r}")


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
    cs = np.asarray(init_cs, dtype=np.uint8)
    if cs.shape != (grid.width,):
        raise ValueError("initial chemical states must match the chain length")
    raster = np.empty((steps + 1, grid.width), np.uint8)
    raster[0] = cs
    for t in range(steps):
        raster[t + 1] = cs = step_1d(grid, cs, rule, rng, mode=mode)
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
