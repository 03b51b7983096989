"""QUBO/Ising problem model, Hamiltonian builders and oracle.

Energy convention: E(x) = offset + linear . x + x^T quad x over bits
x in {0,1}^n, where quad is symmetric with zero diagonal, so the pairwise
coefficient of x_i x_j as written in an expanded Hamiltonian is
2 * quad[i, j]. Spins relate to bits by s = 2x - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


_MAX_VARS = 24  # brute_force_min enumerates at most 2^_MAX_VARS configs
_CHUNK = 1 << 16  # configs per energies() call in brute_force_min


class CapacityError(Exception):
    """Problem size exceeds an enumeration or byte-budget bound."""


@dataclass
class QuboProblem:
    offset: float
    linear: np.ndarray
    quad: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.quad = np.asarray(self.quad, dtype=float)
        if self.linear.ndim != 1:
            raise ValueError(f"linear must be 1-D, got {self.linear.ndim} dimensions")
        n = self.linear.shape[0]
        if n < 1:
            raise ValueError("at least one variable required")
        if self.quad.shape != (n, n):
            raise ValueError("quadratic matrix shape does not match variable count")
        if not all(np.isfinite(c).all() for c in (self.offset, self.linear, self.quad)):
            raise ValueError("offset, linear and quadratic coefficients must be finite")
        with np.errstate(over="ignore"):
            bound = abs(self.offset) + np.abs(self.linear).sum() + np.abs(self.pairwise()).sum()
        if not np.isfinite(bound):
            raise ValueError("energies overflow: |offset| + sum |linear| + sum |pairwise| is not finite")
        if not np.allclose(self.quad, self.quad.T):
            raise ValueError("quadratic matrix must be symmetric")
        if np.any(np.diag(self.quad) != 0):
            raise ValueError("quadratic diagonal must be zero (fold it into linear)")

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    def pairwise(self) -> np.ndarray:
        """Full pairwise coefficients c_ij = 2 quad_ij (as printed in an
        expanded Hamiltonian)."""
        return 2.0 * self.quad


def energy(p: QuboProblem, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"config length {x.shape} does not match n={p.n}")
    return float(p.offset + p.linear @ x + x @ p.quad @ x)


def energies(p: QuboProblem, bits: np.ndarray) -> np.ndarray:
    """Energies of a (m, n) bit matrix in one shot."""
    bits = np.asarray(bits, dtype=float)
    return p.offset + bits @ p.linear + np.einsum("ij,ij->i", bits @ p.quad, bits)


def config_index(x) -> int:
    """Binary encoding of a config: bit i of the index is x_i.

    Packs the bits little-endian into bytes and reads them as one Python
    int, so the index is exact at every config length.
    """
    x = np.asarray(x, dtype=np.uint8)
    if x.ndim != 1:
        raise ValueError(f"config must be a 1-D bit vector, got {x.ndim} dimensions")
    packed = np.packbits(x, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def index_config(idx: int, n: int) -> np.ndarray:
    """Inverse of config_index: the n low bits of idx as a uint8 array."""
    return np.array([(idx >> i) & 1 for i in range(n)], dtype=np.uint8)


def config_bits(n: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n) uint8 table of configs lo..hi-1: row r holds index_config(lo + r, n)."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    return ((idx[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


def bits_to_spins(x) -> np.ndarray:
    return (2 * np.asarray(x, dtype=int) - 1).astype(np.int8)


def _is_real(value) -> bool:
    """A real number; a bool is no number."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_positive(name, value) -> float:
    """`value` as a float: a real number, finite and > 0."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return float(value)


def build_partition(numbers, penalty: float = 1.0) -> QuboProblem:
    """Number-partitioning Hamiltonian A * (sum n_i s_i)^2 in QUBO form.

    With s = 2x - 1 and x^2 = x folded: offset A*T^2, linear
    A(4 n_i^2 - 4 T n_i), pairwise 8 A n_i n_j (T = sum of the numbers).
    """
    penalty = _check_positive("penalty", penalty)
    nums = list(numbers)
    for v in nums:
        if not _is_real(v):
            raise ValueError(f"numbers must be real numbers, got {v!r}")
    nums = np.asarray(nums, dtype=float)
    if nums.size == 0:
        raise ValueError("number set must be nonempty")
    if np.any(nums <= 0):
        raise ValueError("numbers must be positive")
    # overflow is left to QuboProblem's finite check, which names the fields
    with np.errstate(over="ignore", invalid="ignore"):
        total = nums.sum()
        offset = penalty * total * total
        linear = penalty * (4.0 * nums**2 - 4.0 * total * nums)
        quad = penalty * 4.0 * np.outer(nums, nums)
    np.fill_diagonal(quad, 0.0)
    return QuboProblem(offset, linear, quad, {"kind": "partition", "numbers": list(map(float, nums)), "penalty": penalty})


def build_2sat(clauses, penalty: float = 1.0) -> QuboProblem:
    """2-SAT Hamiltonian A * sum_clauses prod_j (1 - w_j s_j).

    Clauses are pairs of nonzero integer literals (DIMACS style, variables
    1..n, negative for negation); each violated clause costs 4A.
    """
    penalty = _check_positive("penalty", penalty)
    try:
        clauses = [tuple(cl) for cl in clauses]
    except TypeError:
        raise ValueError("clauses must be a list of pairs of literals") from None
    if not clauses:
        raise ValueError("clause list must be nonempty")
    n = 0
    for cl in clauses:
        integral = all(isinstance(lit, (int, np.integer)) and not isinstance(lit, bool) for lit in cl)
        if len(cl) != 2 or not integral or 0 in cl:
            raise ValueError(f"clause {cl} must hold exactly two nonzero integer literals")
        if abs(cl[0]) == abs(cl[1]):
            raise ValueError(f"clause {cl} repeats a variable")
        n = max(n, abs(cl[0]), abs(cl[1]))
    offset = 0.0
    linear = np.zeros(n)
    quad = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # as in build_partition
        for la, lb in clauses:
            va, wa = abs(la) - 1, float(np.sign(la))
            vb, wb = abs(lb) - 1, float(np.sign(lb))
            offset += penalty * (1.0 + wa + wb + wa * wb)
            linear[va] += penalty * (-2.0 * wa - 2.0 * wa * wb)
            linear[vb] += penalty * (-2.0 * wb - 2.0 * wa * wb)
            quad[va, vb] += penalty * 2.0 * wa * wb
            quad[vb, va] += penalty * 2.0 * wa * wb
    return QuboProblem(offset, linear, quad, {"kind": "2sat", "clauses": [list(c) for c in clauses], "penalty": penalty})


def distance_matrix_from_coords(coords) -> np.ndarray:
    pts = np.asarray(coords, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def build_tsp(distances, penalty: float = 1.0, scale: float | None = None) -> QuboProblem:
    """Traveling-salesman Hamiltonian over N^2 one-hot variables.

    Variable (i, j) means city j occupies tour position i (flat index
    i*N + j). Row and column one-hot penalties cost `penalty` each;
    adjacent positions couple with scaled distances d' = scale * d, where
    the default scale makes max(d') = 0.1 (so it needs a nonzero distance);
    a given scale must be finite and > 0.
    """
    penalty = _check_positive("penalty", penalty)
    if scale is not None:
        _check_positive("scale", scale)
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(d, d.T) or np.any(np.diag(d) != 0) or np.any(d < 0):
        raise ValueError("distance matrix must be symmetric, nonnegative, zero-diagonal")
    n_city = d.shape[0]
    if n_city < 2:
        raise ValueError("at least two cities required")
    if scale is None:
        if d.max() == 0:
            raise ValueError("all distances are zero; give a scale")
        scale = 0.1 / d.max()
    eye = np.eye(n_city)
    # same position, two cities; or same city, two positions
    one_hot = np.kron(eye, 1.0 - eye) + np.kron(1.0 - eye, eye)
    # city u at position i, city v at position i + 1 (mod N); zero where u = v
    tour = np.kron(np.roll(eye, 1, axis=1), scale * d / 2.0)
    offset = 2.0 * penalty * n_city
    linear = np.full(n_city * n_city, -2.0 * penalty)
    quad = penalty * one_hot + tour + tour.T
    meta = {"kind": "tsp", "n_cities": n_city, "scale": scale, "penalty": penalty}
    return QuboProblem(offset, linear, quad, meta)


def tour_from_config(x, n_city: int) -> list[int] | None:
    """Decode a one-hot TSP config to the city visited at each position,
    or None if any row/column constraint is violated."""
    m = np.asarray(x).reshape(n_city, n_city)
    if np.any(m.sum(axis=1) != 1) or np.any(m.sum(axis=0) != 1):
        return None
    return [int(np.argmax(row)) for row in m]


def brute_force_min(p: QuboProblem):
    """Exhaustive oracle: the minimum energy and the sorted indices of all
    configs within a relative 1e-9 of it (1e-9 absolute below |E| = 1), so
    that symmetric encodings whose float sums differ in the last places are
    all reported. One pass over all 2^n energies, _CHUNK configs at a time.
    """
    if p.n > _MAX_VARS:
        raise CapacityError(f"brute force capped at {_MAX_VARS} variables, got {p.n}")
    total = 1 << p.n
    e = np.empty(total)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        e[lo:hi] = energies(p, config_bits(p.n, lo, hi))
    emin = float(e.min())
    return emin, np.flatnonzero(e <= emin + 1e-9 * max(1.0, abs(emin))).tolist()


@dataclass
class IsingModel:
    """Spin form of a QUBO: E(s) = offset + g . s + sum_{i<j} J_ij s_i s_j."""

    offset: float
    g: np.ndarray
    coupling: np.ndarray


def qubo_to_ising(p: QuboProblem) -> IsingModel:
    c = p.pairwise()
    row = c.sum(axis=1)
    g = p.linear / 2.0 + row / 4.0
    offset = p.offset + p.linear.sum() / 2.0 + row.sum() / 8.0
    return IsingModel(float(offset), g, c / 4.0)


def flip_terms(m: IsingModel, s: np.ndarray, h):
    """Energy-change decomposition for flipping spin h.

    Returns (linear_term, pairwise_terms) with true delta-E equal to
    linear_term + pairwise_terms.sum(axis=-1); pairwise_terms[..., i] is the
    contribution of partner i (zero where the coupling is zero). For R
    chains, s is (R, n) and h holds one spin per row; the linear terms are
    then an (R,) array and the pairwise terms an (R, n) array.
    """
    delta = -2.0 * (s[h] if s.ndim == 1 else s[np.arange(s.shape[0]), h])
    return delta * m.g[h], delta[..., None] * m.coupling[h] * s


def _pair_key(key: str, n: int) -> tuple[int, int]:
    """The spins (i, j) of a `pairs` key "i,j": two distinct integers in [0, n)."""
    try:
        i, j = map(int, key.split(","))
        if 0 <= i < n and 0 <= j < n and i != j:
            return i, j
    except ValueError:
        pass
    raise ValueError(f"pairs key {key!r}: expected 'i,j', two distinct integers in [0, {n})")


def _real_array(name: str, value) -> np.ndarray:
    """`value`, a real number or nested lists of them, as a float array."""
    items = [value]
    for v in items:  # the list grows as nested lists are met
        if isinstance(v, (list, tuple)):
            items += v
        elif not _is_real(v):
            raise ValueError(f"{name} must hold real numbers only, got {v!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # nested lists of unequal lengths
        raise ValueError(f"{name} must be a rectangular array of numbers") from None


def _required(source: dict, key: str):
    """`source[key]`, or a ValueError that names the missing key."""
    if key not in source:
        raise ValueError(f"{key} is required")
    return source[key]


def load_problem(source: dict) -> QuboProblem:
    """Build a problem from a spec dict.

    Kinds: partition {numbers}, 2sat {clauses}, tsp {coords or distances,
    scale}, explicit {offset, linear, quad} where quad is either the full
    symmetric half-weight matrix or {"i,j": c} pairwise coefficients
    (both conventions accepted; pairwise values are halved on load).
    """
    kind = source.get("kind")
    penalty = source.get("penalty", 1.0)
    if kind == "partition":
        return build_partition(_required(source, "numbers"), penalty)
    if kind == "2sat":
        return build_2sat(_required(source, "clauses"), penalty)
    if kind == "tsp":
        if "distances" in source:
            d = _real_array("distances", source["distances"])
        else:
            d = distance_matrix_from_coords(_real_array("coords", _required(source, "coords")))
        return build_tsp(d, penalty, source.get("scale"))
    if kind == "explicit":
        if "penalty" in source:
            raise ValueError("penalty does not apply to an explicit problem")
        linear = _real_array("linear", _required(source, "linear"))
        n = linear.shape[0]
        if "pairs" in source:
            pairs = source["pairs"]
            if not isinstance(pairs, dict):
                raise ValueError(f"pairs must be an object of 'i,j': coefficient, got {type(pairs).__name__}")
            quad = np.zeros((n, n))
            for key, c in pairs.items():
                i, j = _pair_key(key, n)
                if not _is_real(c):
                    raise ValueError(f"pairs key {key!r}: coefficient must be a real number, got {c!r}")
                quad[i, j] += float(c) / 2.0
                quad[j, i] += float(c) / 2.0
        else:
            quad = _real_array("quad", _required(source, "quad"))
        offset = source.get("offset", 0.0)
        if not _is_real(offset):
            raise ValueError(f"offset must be a real number, got {offset!r}")
        return QuboProblem(float(offset), linear, quad, {"kind": "explicit"})
    raise ValueError(f"unknown problem kind: {kind!r}")
