"""Grid topology, neighborhoods and configuration-space counting.

Cells live on either a 1D chain or a 2D torus. Interfacial couplers sit
between nearest-neighbor cells. All counting is exact (arbitrary-precision
integers); a scientific string form is provided for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

LINE_1D = "line1d"
TORUS_2D = "torus2d"


class CellIndex(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class Grid:
    """Cell array topology.

    kind is LINE_1D (height forced to 1) or TORUS_2D (always periodic).
    """

    kind: str
    width: int
    height: int = 1
    periodic: bool = False

    def __post_init__(self):
        if self.kind not in (LINE_1D, TORUS_2D):
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.kind == LINE_1D and self.height != 1:
            raise ValueError("1D chains have height 1")
        if self.kind == TORUS_2D and not self.periodic:
            raise ValueError("2D grids are periodic (torus)")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def contains(self, c: CellIndex) -> bool:
        return 0 <= c.row < self.height and 0 <= c.col < self.width

    def check(self, c: CellIndex) -> CellIndex:
        if not self.contains(c):
            raise IndexError(f"cell {tuple(c)} outside {self.height}x{self.width} grid")
        return c

    def flat(self, c: CellIndex) -> int:
        return c.row * self.width + c.col

    def unflat(self, i: int) -> CellIndex:
        return CellIndex(i // self.width, i % self.width)


def line(width: int, periodic: bool = False) -> Grid:
    """1D chain. Experiments default to a non-periodic 7-cell rig."""
    return Grid(LINE_1D, width, 1, periodic)


def torus(side: int, width: int | None = None) -> Grid:
    """2D periodic grid, square unless a distinct width is given."""
    return Grid(TORUS_2D, width if width is not None else side, side, True)


def nearest_neighbors(grid: Grid, c: CellIndex) -> list[CellIndex]:
    """Von Neumann neighbors in fixed (left, right, up, down) order.

    Non-periodic chain endpoints simply omit the missing side.
    """
    grid.check(c)
    out: list[CellIndex] = []
    w, h = grid.width, grid.height
    if grid.kind == LINE_1D:
        if grid.periodic and w > 1:
            out.append(CellIndex(0, (c.col - 1) % w))
            out.append(CellIndex(0, (c.col + 1) % w))
        else:
            if c.col > 0:
                out.append(CellIndex(0, c.col - 1))
            if c.col < w - 1:
                out.append(CellIndex(0, c.col + 1))
        return out
    for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        out.append(CellIndex((c.row + dr) % h, (c.col + dc) % w))
    return out


# Diagonals first, then axial distance-2 cells; this is the reach used by
# the 2D replication logic.
_NNN_OFFSETS = (
    (-1, -1), (-1, 1), (1, -1), (1, 1),
    (-2, 0), (2, 0), (0, -2), (0, 2),
)


def next_nearest_neighbors(grid: Grid, c: CellIndex) -> list[CellIndex]:
    """Diagonal plus axial distance-2 cells, with wraparound and dedup.

    Only defined on the torus; duplicates arising from wraparound on tiny
    grids are removed while preserving first-occurrence order.
    """
    if grid.kind != TORUS_2D:
        raise ValueError("next-nearest neighborhood requires a 2D torus")
    grid.check(c)
    w, h = grid.width, grid.height
    out: list[CellIndex] = []
    seen = set()
    for dr, dc in _NNN_OFFSETS:
        cell = CellIndex((c.row + dr) % h, (c.col + dc) % w)
        if cell not in seen and cell != c:
            seen.add(cell)
            out.append(cell)
    return out


def input_state_count(n: int, p: int, q: int) -> int:
    """Exact count of stirrer command words on an n x n array.

    p levels per cell stirrer (n^2 of them), q levels per interfacial
    stirrer (2n(n-1) of them): p**(n*n) * q**(2*n*(n-1)).
    """
    if n < 1 or p < 1 or q < 1:
        raise ValueError("n, p, q must all be >= 1")
    return p ** (n * n) * q ** (2 * n * (n - 1))


def chemical_state_count(n: int, k: int) -> int:
    """Exact count of global chemical states, k levels per cell: k**(n*n)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return k ** (n * n)


def expansion_ratio(n: int, p: int, q: int, k: int) -> int:
    """Input-state count over chemical-state count (must divide exactly)."""
    num = input_state_count(n, p, q)
    den = chemical_state_count(n, k)
    if num % den:
        raise ValueError("expansion ratio is not an exact integer")
    return num // den


def format_scientific(value: int, sig: int = 3) -> str:
    """Base-10 scientific string with `sig` leading digits of the integer.

    Digits are truncated, not rounded, so the mantissa shows exactly the
    leading digits of the value (e.g. 6129... -> "6.12e54" at sig=3).
    """
    if value < 0:
        return "-" + format_scientific(-value, sig)
    digits = str(value)
    exp = len(digits) - 1
    mantissa = digits[:sig].ljust(sig, "0")
    if sig == 1:
        return f"{mantissa}e{exp}"
    return f"{mantissa[0]}.{mantissa[1:]}e{exp}"
