"""Chain topology, torus neighborhoods and configuration-space counting.

A 1D chain is a `Grid`: its length and whether its ends are joined. A 2D
torus is the shape of its (h, w) class array, whose neighbor table
`neighbor_table(h, w)` gives. Interfacial couplers sit between
nearest-neighbor cells. All counting is exact (arbitrary-precision
integers); a scientific string form is provided for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """A 1D chain of `width` cells, its ends joined when `periodic`."""

    width: int
    periodic: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("grid dimensions must be >= 1")


def line(width: int, periodic: bool = False) -> Grid:
    """1D chain. Experiments default to a non-periodic 7-cell rig."""
    return Grid(width, periodic)


# Nearest (left, right, up, down), then next-nearest: diagonals first, then
# axial distance-2 cells, the reach used by the 2D replication logic.
_NN_OFFSETS = ((0, -1), (0, 1), (-1, 0), (1, 0))
_NNN_OFFSETS = (
    (-1, -1), (-1, 1), (1, -1), (1, 1),
    (-2, 0), (2, 0), (0, -2), (0, 2),
)


@lru_cache(maxsize=16)
def neighbor_table(height: int, width: int, copies: int = 1) -> np.ndarray:
    """Flat-index neighbors of every cell of a height x width torus, (n, 12).

    Columns 0-3 are the nearest neighbors in `_NN_OFFSETS` order, duplicates
    kept (on a 2-wide torus left and right are one cell). Columns 4-11
    follow `_NNN_OFFSETS`; an entry equal to the cell itself or to an
    earlier next-nearest entry is -1, so tiny tori list each cell once.
    With `copies` > 1 the table covers that many tori stacked one after
    another, (copies * n, 12): torus k holds cells k*n .. k*n + n - 1, and
    every neighbor lies in the cell's own torus.
    """
    if copies > 1:
        one, n = neighbor_table(height, width), height * width
        table = np.where(one < 0, -1, one + n * np.arange(copies)[:, None, None]).reshape(-1, 12)
        table.flags.writeable = False
        return table
    cells = np.arange(height * width)
    rows, cols = np.divmod(cells, width)
    offsets = _NN_OFFSETS + _NNN_OFFSETS
    table = np.stack([(rows + dr) % height * width + (cols + dc) % width for dr, dc in offsets], axis=1)
    nnn = table[:, 4:]
    repeat = (nnn[:, :, None] == nnn[:, None, :]) & np.tri(8, k=-1, dtype=bool)
    nnn[repeat.any(axis=2) | (nnn == cells[:, None])] = -1
    table.flags.writeable = False
    return table


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
