"""QUBO/Ising problem model, Hamiltonian builders and oracle.

Energy convention: E(x) = offset + linear . x + x^T quad x over bits
x in {0,1}^n, where quad is symmetric with zero diagonal, so the pairwise
coefficient of x_i x_j as written in an expanded Hamiltonian is
2 * quad[i, j]. Spins relate to bits by s = 2x - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


_MAX_VARS = 24  # energy_table enumerates at most 2^_MAX_VARS configs
_TABLE_VARS = 16  # the solvers read energies from QuboProblem.table up to this size
_EXACT_BITS = 47  # a problem's energy bound S spans at most 2^_EXACT_BITS steps of its grid 2^-q


class CapacityError(Exception):
    """Problem size exceeds an enumeration or byte-budget bound."""


def _snap(a, q: int):
    """`a` rounded to the nearest multiples of 2^-q; -0.0 becomes 0.0."""
    return np.ldexp(np.rint(np.ldexp(a, q)), -q) + 0.0


@dataclass(frozen=True)
class QuboProblem:
    """A QUBO with exact sums.

    The coefficients are snapped to multiples of 2^-q, where q = 47 -
    ceil(log2 S) and S = |offset| + sum |linear| + sum |pairwise| bounds
    every energy. Each sum of them that the code forms (an energy, the
    Ising form's 1/8 and 1/4 scalings, a flip's terms and any subset of
    them with any signs) then stays a multiple of 2^-(q+3) below 2^(50-q)
    in magnitude, so it is exact whatever its order (Goldberg 1991): tied
    configs compare equal and every path gives the same flip verdict. An
    integer problem with q >= 0 keeps its coefficients; a problem with
    q < 0 is rejected. The arrays are read-only, so what is cached from
    them (`table`) cannot go stale.
    """

    offset: float
    linear: np.ndarray
    quad: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        quad = np.asarray(self.quad, dtype=float)
        if linear.ndim != 1:
            raise ValueError(f"linear must be 1-D, got {linear.ndim} dimensions")
        n = linear.shape[0]
        if n < 1:
            raise ValueError("at least one variable required")
        if quad.shape != (n, n):
            raise ValueError("quadratic matrix shape does not match variable count")
        if not all(np.isfinite(c).all() for c in (self.offset, linear, quad)):
            raise ValueError("offset, linear and quadratic coefficients must be finite")
        with np.errstate(over="ignore"):
            bound = abs(self.offset) + np.abs(linear).sum() + 2.0 * np.abs(quad).sum()
        if not np.isfinite(bound):
            raise ValueError("energies overflow: |offset| + sum |linear| + sum |pairwise| is not finite")
        if not np.allclose(quad, quad.T):
            raise ValueError("quadratic matrix must be symmetric")
        if np.any(np.diag(quad) != 0):
            raise ValueError("quadratic diagonal must be zero (fold it into linear)")
        q = 0  # an all-zero problem stays as it is
        if bound > 0:
            mantissa, exp = math.frexp(bound)
            q = _EXACT_BITS - (exp - (mantissa == 0.5))  # exp - (mantissa == 0.5) = ceil(log2 bound)
            if q < 0:
                raise ValueError(
                    f"coefficients too large for exact sums: |offset| + sum |linear| + sum |pairwise| "
                    f"= {bound:.6g} exceeds 2^{_EXACT_BITS}"
                )
        linear, quad = _snap(linear, q), _snap(quad, q)
        linear.flags.writeable = quad.flags.writeable = False
        object.__setattr__(self, "offset", float(_snap(self.offset, q)))
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quad", quad)

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    def pairwise(self) -> np.ndarray:
        """Full pairwise coefficients c_ij = 2 quad_ij (as printed in an
        expanded Hamiltonian)."""
        return 2.0 * self.quad

    @cached_property
    def table(self) -> np.ndarray | None:
        """energy_table(self), built on the first read and kept, for a
        problem of at most _TABLE_VARS variables (2^16 energies, 512 KiB);
        None above. The solvers read it; brute_force_min builds its own."""
        return energy_table(self) if self.n <= _TABLE_VARS else None


def energy(p: QuboProblem, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"config length {x.shape} does not match n={p.n}")
    return float(p.offset + p.linear @ x + x @ p.quad @ x)


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
    if pts.ndim != 2:
        raise ValueError(f"coords must be a list of points, each a list of coordinates; got {pts.ndim} dimensions")
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


def energy_table(p: QuboProblem) -> np.ndarray:
    """All 2^n energies: entry i is energy(p, index_config(i, n)), bit for bit.

    The low a = n // 2 bits and the high n - a bits are enumerated apart.
    The (2^(n-a), 2^a) table, whose row-major order is the index order, is
    the cross term of the two halves (one matmul), plus each half's own
    energy, added in place. Every sum is exact (QuboProblem), so its order
    is free. Raises CapacityError above _MAX_VARS variables.
    """
    if p.n > _MAX_VARS:
        raise CapacityError(f"energy table capped at {_MAX_VARS} variables, got {p.n}")
    a = p.n // 2
    lo = config_bits(a, 0, 1 << a).astype(float)
    hi = config_bits(p.n - a, 0, 1 << (p.n - a)).astype(float)

    def own(bits, half):  # each config's energy over one half's variables alone
        return bits @ p.linear[half] + np.einsum("ij,ij->i", bits @ p.quad[half, half], bits)

    table = hi @ (p.quad[a:, :a] + p.quad[:a, a:].T) @ lo.T
    table += own(hi, slice(a, None))[:, None]
    table += (own(lo, slice(0, a)) + p.offset)[None, :]
    return table.reshape(-1)


def brute_force_min(p: QuboProblem):
    """Exhaustive oracle: the minimum of energy_table(p) and the sorted
    indices of every config whose energy equals it. Energies are exact, so
    symmetric encodings of one solution tie exactly."""
    e = energy_table(p)
    emin = e.min()
    return float(emin), np.flatnonzero(e == emin).tolist()


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


def _one_of(source: dict, key: str, other: str) -> bool:
    """Whether `source` gives `key`; a ValueError naming both keys if it
    gives both, since each one alone defines the same part of a problem."""
    if key in source and other in source:
        raise ValueError(f"{key} and {other} are both given; give one")
    return key in source


# problem kind -> the keys of its spec besides "kind"
_PROBLEM_KEYS = {
    "partition": ("numbers", "penalty"),
    "2sat": ("clauses", "penalty"),
    "tsp": ("coords", "distances", "scale", "penalty"),
    "explicit": ("offset", "linear", "quad", "pairs"),
}


def load_problem(source: dict) -> QuboProblem:
    """Build a problem from a spec dict.

    Kinds: partition {numbers, penalty}, 2sat {clauses, penalty}, tsp
    {coords or distances, scale, penalty}, explicit {offset, linear, quad
    or pairs}, where quad is the full symmetric half-weight matrix and pairs
    the {"i,j": c} pairwise coefficients (halved on load). Any other key,
    or both keys of an "or", is an error.
    """
    kind = source.get("kind")
    if not isinstance(kind, str) or kind not in _PROBLEM_KEYS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    unknown = [str(key) for key in source if key != "kind" and key not in _PROBLEM_KEYS[kind]]
    if unknown:
        raise ValueError(f"{', '.join(unknown)}: unknown key; kind {kind} takes {', '.join(_PROBLEM_KEYS[kind])}")
    penalty = source.get("penalty", 1.0)
    if kind == "partition":
        return build_partition(_required(source, "numbers"), penalty)
    if kind == "2sat":
        return build_2sat(_required(source, "clauses"), penalty)
    if kind == "tsp":
        if _one_of(source, "distances", "coords"):
            d = _real_array("distances", source["distances"])
        else:
            d = distance_matrix_from_coords(_real_array("coords", _required(source, "coords")))
        return build_tsp(d, penalty, source.get("scale"))
    # kind == "explicit"
    linear = _real_array("linear", _required(source, "linear"))
    n = linear.size  # a linear that is not 1-D is QuboProblem's to reject, by name
    if _one_of(source, "pairs", "quad"):
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
