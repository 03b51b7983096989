import json
import math
import random
import warnings

import numpy as np
import pytest

from chemca import qubo
from chemca.qubo import (
    CapacityError,
    QuboProblem,
    bits_to_spins,
    brute_force_min,
    build_2sat,
    build_partition,
    build_tsp,
    config_bits,
    config_index,
    distance_matrix_from_coords,
    energy,
    energy_table,
    flip_terms,
    index_config,
    load_problem,
    qubo_to_ising,
    tour_from_config,
)
from chemca.harness import ExperimentConfig, run

from .spin_bits import spins_to_bits

CITIES = [[0, 0], [1, 0], [3, 3], [0, 10]]
SAT1 = [(1, 2), (2, -4), (3, 4)]
SAT2 = [(1, 2), (2, -4), (3, 4), (1, -3), (1, -2), (-3, 4)]


def test_partition_4_printed_coefficients():
    p = build_partition([1, 3, 4, 8])
    assert p.offset == 256
    assert p.linear.tolist() == [-60, -156, -192, -256]
    half = [[0, 12, 16, 32], [12, 0, 48, 96], [16, 48, 0, 128], [32, 96, 128, 0]]
    assert p.quad.tolist() == half
    pair = p.pairwise()
    assert (pair[0, 1], pair[0, 2], pair[1, 2]) == (24, 32, 96)
    assert (pair[0, 3], pair[1, 3], pair[2, 3]) == (64, 192, 256)


def test_partition_6_printed_with_x5_from_algebra():
    p = build_partition([1, 3, 4, 6, 5, 1])
    assert p.offset == 400
    # reformulated Hamiltonian: -300 x5 (fold of -400 x5 + 100 x5^2)
    assert p.linear.tolist() == [-76, -204, -256, -336, -300, -76]
    assert p.pairwise()[0, 4] == 40  # printed 40 x1 x5


def test_partition_singleton():
    p = build_partition([5])
    assert energy(p, [0]) == energy(p, [1]) == 25.0


def test_partition_validation():
    with pytest.raises(ValueError):
        build_partition([])
    with pytest.raises(ValueError):
        build_partition([1, -2])


def test_problem_coefficients_must_be_finite():
    for offset, linear in ((0.0, [np.nan, 0.0]), (np.inf, [0.0, 0.0])):
        with pytest.raises(ValueError, match="must be finite"):
            QuboProblem(offset, linear, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="must be finite"):
        QuboProblem(0.0, [0.0, 0.0], [[0.0, np.nan], [np.nan, 0.0]])


def test_builder_overflow_reported_without_warnings():
    # the builders' arithmetic overflows; the finite check alone reports it
    specs = [
        {"kind": "partition", "numbers": [1e200, 1e200]},
        {"kind": "partition", "numbers": [1e154, 1e154]},
        {"kind": "2sat", "clauses": [[1, 2], [-1, 2], [1, -2]], "penalty": 1e308},
    ]
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                load_problem(spec)


def test_problem_energies_must_not_overflow():
    # finite coefficients whose energies reach -inf (config 3: -2e308)
    with pytest.raises(ValueError, match="overflow"):
        QuboProblem(0.0, [-1e308, -1e308], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="overflow"):
        QuboProblem(0.0, [0.0, 0.0], [[0.0, 1e308], [1e308, 0.0]])


def test_2sat_example1_printed_hamiltonian():
    p = build_2sat(SAT1)
    assert p.offset == 8
    assert p.linear.tolist() == [-4, -4, -4, 0]
    pair = p.pairwise()
    assert pair[0, 1] == 4 and pair[1, 3] == -4 and pair[2, 3] == 4
    assert pair[0, 2] == 0 and pair[0, 3] == 0 and pair[1, 2] == 0


def test_2sat_example2_printed_hamiltonian():
    p = build_2sat(SAT2)
    assert p.offset == 8
    assert p.linear.tolist() == [-4, 0, 4, 0]
    pair = p.pairwise()
    assert pair[0, 2] == -4 and pair[1, 3] == -4
    assert pair[0, 1] == 0 and pair[2, 3] == 0


def test_2sat_single_clause_energy():
    p = build_2sat([(1, 2)])
    assert energy(p, [1, 1, 0, 0][: p.n]) == 0
    assert energy(p, [0, 0]) == 4.0


def test_2sat_energy_counts_violated_clauses():
    for clauses in (SAT1, SAT2):
        p = build_2sat(clauses)
        for idx in range(16):
            x = index_config(idx, 4)
            violated = 0
            for la, lb in clauses:
                va = bool(x[abs(la) - 1]) == (la > 0)
                vb = bool(x[abs(lb) - 1]) == (lb > 0)
                violated += not (va or vb)
            assert energy(p, x) == pytest.approx(4.0 * violated)


def test_2sat_validation():
    with pytest.raises(ValueError):
        build_2sat([])
    with pytest.raises(ValueError):
        build_2sat([(1, 1)])
    with pytest.raises(ValueError):
        build_2sat([(1, 0)])


def test_tsp_printed_couplings_within_tolerance():
    p = build_tsp(distance_matrix_from_coords(CITIES))
    assert p.offset == 8.0
    assert set(p.linear.tolist()) == {-2.0}
    pair = p.pairwise()
    var = lambda i, j: i * 4 + j
    printed = {
        (var(0, 1), var(1, 0)): 0.00995,
        (var(0, 2), var(1, 0)): 0.0422,
        (var(0, 3), var(1, 0)): 0.0995,
        (var(0, 2), var(1, 1)): 0.0359,
        (var(0, 3), var(1, 1)): 0.1,
        (var(0, 3), var(1, 2)): 0.0758,
    }
    for (a, b), want in printed.items():
        assert pair[a, b] == pytest.approx(want, abs=5e-4)


def test_tsp_valid_tour_energy_and_penalty():
    p = build_tsp(distance_matrix_from_coords(CITIES))
    x = np.zeros(16)
    for i, c in enumerate((0, 1, 2, 3)):
        x[i * 4 + c] = 1
    assert energy(p, x) == pytest.approx(0.2212, abs=5e-4)
    empty_row = np.zeros(16)
    empty_row[[4 + 1, 8 + 2, 12 + 3]] = 1  # position 0 unassigned
    assert energy(p, empty_row) >= 1.0


def test_tsp_every_permutation_has_zero_penalty():
    import itertools

    d = distance_matrix_from_coords(CITIES)
    p = build_tsp(d)
    scale = p.metadata["scale"]
    for perm in itertools.permutations(range(4)):
        x = np.zeros(16)
        for i, c in enumerate(perm):
            x[i * 4 + c] = 1
        length = sum(d[perm[i], perm[(i + 1) % 4]] for i in range(4))
        assert energy(p, x) == pytest.approx(scale * length, abs=1e-9)


def test_tsp_validation():
    with pytest.raises(ValueError):
        build_tsp([[0, 1], [1, 0], [0, 0]])  # not square
    with pytest.raises(ValueError):
        build_tsp([[0, 1], [2, 0]])  # not symmetric
    for scale in (-0.5, 0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            build_tsp([[0, 1], [1, 0]], scale=scale)


def test_tsp_coincident_cities_need_a_scale():
    d = distance_matrix_from_coords([[0, 0], [0, 0], [0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before dividing by the zero distance
        with pytest.raises(ValueError, match="all distances are zero; give a scale"):
            build_tsp(d)
    p = build_tsp(d, scale=1.0)
    emin, minima = brute_force_min(p)
    assert emin == 0.0 and len(minima) == 6  # every tour, penalties only


def _tsp_quad_loops(d, penalty, scale):
    """Reference: build_tsp's quadratic matrix written as loops over the
    one-hot pairs and the tour steps, upper half then symmetrized."""
    n_city = d.shape[0]
    if scale is None:
        scale = 0.1 / d.max()
    dscaled = scale * d
    var = lambda pos, city: pos * n_city + city
    quad = np.zeros((n_city * n_city, n_city * n_city))
    for i in range(n_city):
        for a in range(n_city):
            for b in range(a + 1, n_city):
                quad[var(i, a), var(i, b)] += penalty  # same position, two cities
                quad[var(a, i), var(b, i)] += penalty  # same city, two positions
    for u in range(n_city):
        for v in range(n_city):
            if u == v:
                continue
            for i in range(n_city):
                a, b = var(i, u), var((i + 1) % n_city, v)
                quad[a, b] += dscaled[u, v] / 2.0
    quad = quad + quad.T - np.diag(np.diag(quad))
    np.fill_diagonal(quad, 0.0)
    return quad


def test_tsp_quad_matches_loop_reference_bytes():
    # 2 cities: the tour term and its transpose land on the same entries;
    # integer coords give coincident cities, the nudge a distance matrix
    # symmetric only to allclose. The loop form goes through the same snap,
    # as a problem with build_tsp's offset and linear terms
    rng = np.random.default_rng(5)
    for trial in range(400):
        n_city = 2 + trial % 5
        pts = rng.integers(0, 3, (n_city, 2)) if trial % 2 else 10 * rng.random((n_city, 2))
        d = distance_matrix_from_coords(pts)
        if trial % 3 == 0:
            d = d + np.triu(1e-10 * rng.random((n_city, n_city)), 1)
        penalty = (0.5, 1.0, 3.7, 1e6)[trial % 4]
        scale = (None, 0.37, 1.0)[trial % 3]  # None only on nudged, nonzero distances
        got = build_tsp(d, penalty, scale).quad
        n = n_city * n_city
        want = QuboProblem(2.0 * penalty * n_city, np.full(n, -2.0 * penalty), _tsp_quad_loops(d, penalty, scale)).quad
        assert got.tobytes() == want.tobytes(), (trial, n_city, penalty, scale)


def test_oracle_partition_4():
    emin, minima = brute_force_min(build_partition([1, 3, 4, 8]))
    assert emin == 0.0
    assert minima == [7, 8] and all(type(i) is int for i in minima)
    assert {tuple(index_config(i, 4)) for i in minima} == {(0, 0, 0, 1), (1, 1, 1, 0)}


def test_oracle_partition_6_degenerate_splits():
    emin, minima = brute_force_min(build_partition([1, 3, 4, 6, 5, 1]))
    assert emin == 0.0
    assert minima == sorted(minima)
    got = {tuple(int(v) for v in index_config(i, 6)) for i in minima}
    # the named splits {1,3,5,1}/{4,6} and {1,3,6}/{4,5,1}, plus the third
    # degenerate family from the duplicated 1, each with its complement
    assert (1, 1, 0, 0, 1, 1) in got and (0, 0, 1, 1, 0, 0) in got
    assert (1, 1, 0, 1, 0, 0) in got and (0, 0, 1, 0, 1, 1) in got
    assert all(tuple(1 - v for v in c) in got for c in got)
    assert len(got) == 6


def test_oracle_2sat_solutions():
    _, minima = brute_force_min(build_2sat(SAT1))
    assert (1, 0, 1, 0) in {tuple(index_config(i, 4)) for i in minima}
    emin2, minima2 = brute_force_min(build_2sat(SAT2))
    assert emin2 == 0.0
    assert (1, 1, 0, 1) in {tuple(index_config(i, 4)) for i in minima2}


def test_oracle_tsp_min_energy():
    emin, minima = brute_force_min(build_tsp(distance_matrix_from_coords(CITIES)))
    assert emin == pytest.approx(0.2212, abs=5e-4)
    assert len(minima) == 8  # 4 rotations x 2 directions of the optimal tour
    for i in minima:
        assert tour_from_config(index_config(i, 16), 4) is not None


def test_oracle_partition_18_crosses_chunks():
    # 2^18 configs, enumerated as two halves of 9 bits; minima come in
    # complement pairs, so half of them have their top bit set
    numbers = np.random.default_rng(18).integers(1, 60, 18)
    p = build_partition(numbers.tolist())
    idx = np.arange(1 << 18)
    signed_sum = sum((2 * ((idx >> i) & 1) - 1) * n for i, n in enumerate(numbers))
    ref = signed_sum**2  # A (sum n_i s_i)^2 in integers
    emin, minima = brute_force_min(p)
    assert emin == float(ref.min())
    assert minima == np.flatnonzero(ref == ref.min()).tolist()
    assert minima[-1] >= 1 << 17


def explicit_float(n, seed):
    """An explicit problem with seeded, non-dyadic float coefficients."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.normal(size=(n, n)), 1)
    return QuboProblem(rng.normal(), rng.normal(size=n), upper + upper.T)


@pytest.mark.parametrize("name", ["tsp3", "tsp4", "tsp3_degenerate", "p9", "2sat", "explicit"])
def test_energy_table_equals_energy_bitwise(name):
    p = {
        "tsp3": lambda: build_tsp(distance_matrix_from_coords(CITIES[:3])),
        "tsp4": lambda: build_tsp(distance_matrix_from_coords(CITIES)),
        "tsp3_degenerate": lambda: build_tsp(distance_matrix_from_coords([[3, 2], [3, 0], [3, 2]])),
        "p9": lambda: build_partition([22, 32, 29, 33, 30, 26, 5, 37, 39]),
        "2sat": lambda: build_2sat(SAT2),
        "explicit": lambda: explicit_float(11, 28),
    }[name]()
    want = np.array([energy(p, x) for x in config_bits(p.n, 0, 1 << p.n)])
    assert energy_table(p).tobytes() == want.tobytes()
    assert p.table.tobytes() == want.tobytes()


def test_snap_moves_floats_to_the_nearest_grid_step():
    # integer problems keep their coefficients (the printed-coefficient tests)
    rng = np.random.default_rng(28)
    offset, linear, upper = rng.normal(), rng.normal(size=6), np.triu(rng.normal(size=(6, 6)), 1)
    p = QuboProblem(offset, linear, upper + upper.T)
    bound = abs(offset) + np.abs(linear).sum() + 2 * np.abs(upper + upper.T).sum()
    step = 2.0 ** -(47 - math.ceil(math.log2(bound)))
    for got, raw in ((p.offset, offset), (p.linear, linear), (p.quad, upper + upper.T)):
        assert np.all(np.abs(got - raw) <= step / 2)
        assert np.all(np.mod(got, step) == 0)


def test_problem_arrays_are_read_only():
    p = build_partition([1, 3, 4, 8])
    for write in (lambda: p.linear.__setitem__(0, 1.0), lambda: p.quad.__setitem__((0, 1), 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    with pytest.raises(AttributeError):
        p.linear = np.zeros(4)
    # the caller's arrays stay writable and unchanged
    linear = np.array([0.1, 0.2])
    QuboProblem(0.0, linear, np.zeros((2, 2)))
    linear[0] = 5.0
    assert linear.tolist() == [5.0, 0.2]


def test_problem_too_large_for_exact_sums():
    with pytest.raises(ValueError, match=r"coefficients too large for exact sums: .* exceeds 2\^47"):
        build_partition([10000000, 10000000])
    # 2^47 exactly is the largest bound kept, with integer coefficients
    p = QuboProblem(0.0, [2.0**46, 2.0**46], np.zeros((2, 2)))
    assert p.linear.tolist() == [2.0**46, 2.0**46]
    with pytest.raises(ValueError, match="too large"):
        QuboProblem(1.0, [2.0**46, 2.0**46], np.zeros((2, 2)))
    zero = QuboProblem(-0.0, [-0.0, 0.0], np.zeros((2, 2)))
    assert str(zero.offset) == "0.0" and zero.linear.tolist() == [0.0, 0.0]


def test_problem_equality_is_identity():
    p, same = build_partition([1, 3, 4, 8]), build_partition([1, 3, 4, 8])
    assert p == p and not p != p
    assert (p == same) is False and p != same  # answered, not numpy's ambiguous truth value
    assert hash(p) == hash(p) and {p: 1}[p] == 1 and len({p, same}) == 2
    assert p.table is p.table  # the cached table still lands on the instance


def test_table_cached_up_to_the_cap():
    p = build_tsp(distance_matrix_from_coords(CITIES[:3]))
    brute_force_min(p)
    assert "table" not in vars(p)  # the oracle builds its own, so a solver's first read pays for it
    assert p.table is p.table and p.table.size == 1 << 9
    big = QuboProblem(0.0, np.ones(qubo._TABLE_VARS + 1), np.zeros((qubo._TABLE_VARS + 1,) * 2))
    assert big.table is None


def test_oracle_capacity():
    with pytest.raises(CapacityError):
        brute_force_min(QuboProblem(0.0, np.zeros(25), np.zeros((25, 25))))


def test_partition_trace_energies_match_printed():
    p = build_partition([1, 3, 4, 8])
    printed = {
        (-1, -1, -1, -1): 256.0,
        (-1, 1, -1, -1): 100.0,
        (1, 1, -1, -1): 64.0,
        (-1, 1, -1, 1): 36.0,
        (-1, 1, 1, 1): 196.0,
        (-1, -1, -1, 1): 0.0,
        (-1, 1, 1, -1): 4.0,
        (1, 1, -1, 1): 64.0,
    }
    for spins, want in printed.items():
        assert energy(p, spins_to_bits(spins)) == want


def test_partition_complement_symmetry():
    p = build_partition([2, 7, 5, 9, 4])
    for idx in range(32):
        x = index_config(idx, 5)
        assert energy(p, x) == pytest.approx(energy(p, 1 - x))


def test_ising_round_trip_exhaustive():
    problems = [
        build_partition([1, 3, 4, 8]),
        build_2sat(SAT1),
        build_partition([1, 3, 4, 6, 5, 1]),
    ]
    for p in problems:
        m = qubo_to_ising(p)
        for idx in range(1 << p.n):
            x = index_config(idx, p.n)
            s = bits_to_spins(x)
            ising = m.offset + m.g @ s + (s @ m.coupling @ s) / 2.0
            assert ising == pytest.approx(energy(p, x))
            assert spins_to_bits(s).tolist() == x.tolist()


def test_energy_length_mismatch():
    p = build_partition([1, 2, 3])
    with pytest.raises(ValueError):
        energy(p, [0, 1])


def test_flip_terms_batched_rows_equal_single_chain():
    rng = np.random.default_rng(4)
    for p in (build_tsp(distance_matrix_from_coords(CITIES)), build_partition([1, 3, 4, 9, 3, 5, 3, 6])):
        m = qubo_to_ising(p)
        s = bits_to_spins(rng.integers(0, 2, (12, p.n))).astype(float)
        h = rng.integers(p.n, size=12)
        lin, pair = flip_terms(m, s, h)
        assert lin.shape == (12,) and pair.shape == (12, p.n)
        for r in range(12):
            lin_r, pair_r = flip_terms(m, s[r], int(h[r]))
            assert lin[r] == lin_r
            assert np.array_equal(pair[r], pair_r)


def test_config_index_round_trip():
    for idx in (0, 1, 5, 200, 255):
        assert config_index(index_config(idx, 8)) == idx
    table = config_bits(8, 3, 256)
    assert table.dtype == np.uint8 and [config_index(row) for row in table] == list(range(3, 256))


def test_config_index_rejects_non_vectors():
    for x in (5, [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="1-D bit vector"):
            config_index(x)


def py_config_index(x) -> int:
    return sum(int(v) << i for i, v in enumerate(x))


def py_index_config(idx: int, n: int) -> list[int]:
    return [(idx >> i) & 1 for i in range(n)]


@pytest.mark.parametrize("n", [1, 16, 62, 63, 64, 100])
def test_config_index_exact_against_python_ints(n):
    # the packed-bytes index agrees with the definition on both sides of
    # the int64 boundary and on uint8, bool and list inputs
    rng = np.random.default_rng(n)
    rows = [np.ones(n, np.uint8), np.zeros(n, np.uint8)] + [
        rng.integers(0, 2, n).astype(np.uint8) for _ in range(20)
    ]
    for bits in rows:
        want = py_config_index(bits.tolist())
        for x in (bits, bits.astype(bool), bits.tolist()):
            got = config_index(x)
            assert type(got) is int and got == want
    src = random.Random(n)
    indices = [0, 1, (1 << n) - 1] + [src.getrandbits(n) for _ in range(20)]
    if n >= 64:
        indices += [(1 << 63) + src.getrandbits(63) for _ in range(5)]
    for idx in indices:
        bits = index_config(idx, n)
        assert bits.dtype == np.uint8 and bits.tolist() == py_index_config(idx, n)
        assert config_index(bits) == idx
    # indices wider than n keep their n low bits, as the definition does
    for idx in ((1 << (n + 3)) + 5, -1):
        assert index_config(idx, n).tolist() == py_index_config(idx, n)


def test_explicit_problem_both_conventions():
    full = load_problem(
        {"kind": "explicit", "offset": 1.0, "linear": [1, 2], "quad": [[0, 3], [3, 0]]}
    )
    pairs = load_problem(
        {"kind": "explicit", "offset": 1.0, "linear": [1, 2], "pairs": {"0,1": 6.0}}
    )
    for idx in range(4):
        x = index_config(idx, 2)
        assert energy(full, x) == energy(pairs, x)


def test_solution_json(tmp_path):
    problem = {"kind": "partition", "numbers": [1, 3, 4, 8]}
    run(ExperimentConfig.from_dict({"kind": "markov", "problem": problem, "out": str(tmp_path)}), quiet=True)
    data = json.loads((tmp_path / "oracle.json").read_text())
    assert data["problem"] == {"kind": "partition", "numbers": [1.0, 3.0, 4.0, 8.0], "penalty": 1.0}
    assert data["min_energy"] == 0.0
    assert data["argmin_indices"] == [7, 8]
    assert data["argmin_configs"] == [[1, 1, 1, 0], [0, 0, 0, 1]]
