import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from chemca.harness import ExperimentConfig, run
from chemca.hybrid import SolverParams, observed_change, solve_type2
from chemca.markov import (
    _doomed,
    acceptance_prob,
    build_transition_matrix,
    empirical_success,
    success_probabilities,
)
from chemca.qubo import (
    CapacityError,
    QuboProblem,
    bits_to_spins,
    brute_force_min,
    build_2sat,
    build_partition,
    build_tsp,
    distance_matrix_from_coords,
    energy,
    flip_terms,
    index_config,
    qubo_to_ising,
)

P4 = build_partition([1, 3, 4, 8])
P8 = build_partition([1, 3, 4, 9, 3, 5, 3, 6])
# the markov-exact benchmark partition: at index 1.0, 130 of its 512 configs
# move but reach no minimum (the two energy-25 configs swap by flipping the 5)
P9 = build_partition([22, 32, 29, 33, 30, 26, 5, 37, 39])
TSP3 = build_tsp(distance_matrix_from_coords([[0, 0], [1, 0], [3, 3]]))
TSP4 = build_tsp(distance_matrix_from_coords([[0, 0], [1, 0], [3, 3], [0, 10]]))
SAT4 = build_2sat([(1, 2), (-1, 3), (-2, -3), (3, 4)])
# two cities share a point, so many flips change the energy by exactly 0: only
# through such flips do configs 76, 97, 100, 101 and 108 reach a minimum at
# index 1.0 (unsnapped coefficients rounded some of those changes to +4.4e-16)
TSP3_DEGENERATE = build_tsp(distance_matrix_from_coords([[3, 2], [3, 0], [3, 2]]))


def trajectory(p, p_chem, init, steps, rng):
    """One sampled Type-2 trajectory as config indices, init included."""
    params = SolverParams(p_chem=p_chem, max_steps=steps, patience=0)
    trace = solve_type2(p, params, rng, init=init)
    return [trace.init_config] + trace.configs


def minima_indices(p):
    return brute_force_min(p)[1]


def true_delta(p, x, h):
    y = x.copy()
    y[h] ^= 1
    return energy(p, y) - energy(p, x)


def test_acceptance_degenerate_at_index_one():
    for idx, h in itertools.product(range(16), range(4)):
        x = index_config(idx, 4)
        want = 1.0 if true_delta(P4, x, h) <= 0 else 0.0
        assert acceptance_prob(P4, x, h, 1.0) == want


def test_acceptance_total_inversion_single_term():
    # two variables, one pairwise term, no spin-linear term: at p_chem = 0
    # the sign flips, so an uphill move is always seen as downhill
    p = QuboProblem(0.0, np.array([-2.0, -2.0]), np.array([[0.0, 2.0], [2.0, 0.0]]))
    # linear spin term: g = h1/2 + row/4 = -1 + 1 = 0; pure pairwise
    x = np.array([0, 1], np.uint8)
    assert true_delta(p, x, 0) > 0
    assert acceptance_prob(p, x, 0, 1.0) == 0.0
    assert acceptance_prob(p, x, 0, 0.0) == 1.0


def test_acceptance_halved_at_symmetric_index():
    # at p_chem = 0.5 acceptance is exactly 1/2 unless sign patterns can
    # sum to zero; for {1,3,4,8} that happens only for variable 4
    for idx in range(16):
        x = index_config(idx, 4)
        for h in range(3):
            assert acceptance_prob(P4, x, h, 0.5) == pytest.approx(0.5)
        assert acceptance_prob(P4, x, 3, 0.5) == pytest.approx(0.625)


def test_acceptance_matches_monte_carlo():
    rng = np.random.default_rng(17)
    x = index_config(0, 8)
    h = 4
    p_chem = 0.95
    want = acceptance_prob(P8, x, h, p_chem)

    ising = qubo_to_ising(P8)
    s = bits_to_spins(x).astype(float)
    lin, pair = flip_terms(ising, s, h)
    d = pair[np.flatnonzero(ising.coupling[h])]
    n = 1_000_000
    signs = np.where(rng.random((n, d.size)) < p_chem, 1.0, -1.0)
    hits = ((lin + signs @ d) <= 0).mean()
    assert abs(hits - want) < 3 * math.sqrt(want * (1 - want) / n)


def test_acceptance_batched_rows_equal_single_config():
    # one config per row is the same law as one config at a time, and at
    # index 1 the same law as the solver's 1-D partner terms
    for p in (P8, TSP3):
        ising = qubo_to_ising(p)
        configs = np.array([index_config(c, p.n) for c in range(1 << p.n)])
        for p_chem, h in itertools.product((1.0, 0.95, 0.5), range(p.n)):
            batched = acceptance_prob(p, configs, h, p_chem)
            assert batched.shape == (1 << p.n,)
            for c, x in enumerate(configs):
                assert acceptance_prob(p, x, h, p_chem) == batched[c]
                if p_chem == 1.0:
                    lin, pair = flip_terms(ising, bits_to_spins(x).astype(float), h)
                    terms = pair[np.flatnonzero(ising.coupling[h])]
                    assert batched[c] == float(observed_change(lin, terms, 1.0) <= 0.0)


@pytest.mark.parametrize("p", [TSP3, TSP3_DEGENERATE], ids=["tsp3", "tsp3_degenerate"])
def test_transition_matrix_equals_solver_sign_patterns(p):
    # entry (c, h) at index 0.95 is the summed probability of the sign
    # patterns of h's partner terms that observed_change accepts; at true
    # ties every order of summation must give the same verdict (unsnapped
    # TSP3 coefficients broke 768 of 4608 entries)
    p_chem = 0.95
    ising = qubo_to_ising(p)
    table = build_transition_matrix(p, p_chem)
    want = np.empty_like(table)
    for h in range(p.n):
        partners = np.flatnonzero(ising.coupling[h])
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=partners.size)))
        probs = np.prod(np.where(signs > 0, p_chem, 1.0 - p_chem), axis=1)
        for c in range(1 << p.n):
            lin, pair = flip_terms(ising, bits_to_spins(index_config(c, p.n)).astype(float), h)
            terms = np.broadcast_to(pair[partners], signs.shape)
            want[c, h] = probs[observed_change(lin, terms, p_chem, signs=signs) <= 0.0].sum()
    assert np.count_nonzero(np.abs(table - want) > 1e-12) == 0


@pytest.mark.parametrize("name", ["tsp4", "p9"])
def test_observed_change_uniforms_equal_sign_products(name):
    # the uniforms form negates each term whose check disagrees; the form it
    # replaced multiplied the terms by where(u < p_chem, 1, -1). A product
    # with +-1 is exact, so both sum the same floats: equal bit for bit, on
    # the Monte Carlo's (R, n) rows and on the solver's 1-D partner terms
    p = {"tsp4": TSP4, "p9": P9}[name]
    ising = qubo_to_ising(p)
    rng = np.random.default_rng(27)
    configs = rng.integers(0, 2, (2000, p.n)) if p.n > 9 else [index_config(c, p.n) for c in range(1 << p.n)]
    s = bits_to_spins(configs).astype(float)
    for p_chem, h in itertools.product((0.95, 0.5, 0.0), range(p.n)):
        lin, pair = flip_terms(ising, s, np.full(len(s), h))
        u = rng.random(pair.shape)
        want = lin + (np.where(u < p_chem, 1.0, -1.0) * pair).sum(axis=-1)
        got = observed_change(lin, pair, p_chem, u)
        assert got.tobytes() == want.tobytes(), (p_chem, h)
        partners = np.flatnonzero(ising.coupling[h])
        for row in range(0, len(s), 97):
            terms, v = pair[row, partners], u[row, : partners.size]
            want = lin[row] + (np.where(v < p_chem, 1.0, -1.0) * terms).sum()
            assert observed_change(lin[row], terms, p_chem, v) == want, (p_chem, h, row)


def test_transition_matrix_n1_descends():
    p = QuboProblem(1.0, np.array([-1.0]), np.zeros((1, 1)))
    accept = build_transition_matrix(p, 1.0)
    assert accept[0].tolist() == [1.0]  # x=0 (E=1) -> x=1 (E=0)
    assert accept[1].tolist() == [0.0]  # staying put at the minimum


def test_transition_matrix_row_stochastic():
    for p_chem in (1.0, 0.99, 0.95, 0.5):
        accept = build_transition_matrix(P8, p_chem)
        assert accept.shape == (256, 8)
        assert np.all(accept >= 0)
        assert np.all(accept.sum(axis=1) / 8 <= 1.0 + 1e-12)


def test_minima_absorbing_at_index_one():
    accept = build_transition_matrix(P4, 1.0)
    for m in minima_indices(P4):
        # all strict moves uphill; only the zero-delta plateau moves leak
        x = index_config(m, 4)
        out = sum(accept[m, h] for h in range(4) if true_delta(P4, x, h) > 0)
        assert out == 0.0


def dense_success(accept, minima, horizon):
    """Oracle: the dense 2^n x 2^n one-proposal matrix with absorbing
    minima, raised to the horizon."""
    size, n = accept.shape
    m = np.zeros((size, size))
    for c, h in itertools.product(range(size), range(n)):
        m[c, c ^ (1 << h)] = accept[c, h] / n
    m[np.arange(size), np.arange(size)] = 1.0 - m.sum(axis=1)
    m[minima] = 0.0
    m[minima, minima] = 1.0
    return np.linalg.matrix_power(m, horizon)[:, minima].sum(axis=1)


def test_success_matches_dense_oracle():
    for p in (P4, P8):
        minima = minima_indices(p)
        for p_chem in (1.0, 0.99, 0.95, 0.5):
            t = build_transition_matrix(p, p_chem)
            for horizon in (0, 10, 100, 800):
                got = success_probabilities(t, minima, horizon).success
                assert np.abs(got - dense_success(t, minima, horizon)).max() <= 1e-12


def test_success_fixed_point_exit_matches_full_horizon():
    # the loop without the exit, as reference: equal bytes at every horizon,
    # including either side of the first horizon whose array repeats the last
    for p in (P8, P9):
        minima = minima_indices(p)
        for p_chem in (1.0, 0.95, 0.5):
            t = build_transition_matrix(p, p_chem)
            move = t / p.n
            stay = 1.0 - move.sum(axis=1)
            neighbours = np.arange(1 << p.n)[:, None] ^ (1 << np.arange(p.n))
            success = np.zeros(1 << p.n)
            success[minima] = 1.0
            curve, fixed = [success], None
            for horizon in range(1, 100 * p.n + 1):
                success = stay * success + (move * success[neighbours]).sum(axis=1)
                success[minima] = 1.0
                if fixed is None and success.tobytes() == curve[-1].tobytes():
                    fixed = horizon
                curve.append(success)
            horizons = {0, 1, 100 * p.n}
            if fixed is not None:
                horizons |= {fixed - 1, fixed, fixed + 1}
            for horizon in sorted(horizons):
                report = success_probabilities(t, minima, horizon)
                assert report.horizon == horizon
                assert report.success.tobytes() == curve[horizon].tobytes(), (p.n, p_chem, horizon)
            if p_chem == 1.0:  # the exit is taken
                assert fixed is not None and fixed < 100 * p.n


def test_histogram_counts_every_start():
    # success values rounded above 1.0 fell outside the histogram range
    minima = minima_indices(P4)
    for p_chem in (0.99, 0.95, 0.5):
        report = success_probabilities(build_transition_matrix(P4, p_chem), minima, 800)
        assert report.histogram()[0].sum() == 16


def test_success_from_minimum_is_one():
    t = build_transition_matrix(P4, 0.95)
    minima = minima_indices(P4)
    report = success_probabilities(t, minima, horizon=50)
    for m in minima:
        assert report.success[m] == pytest.approx(1.0)


def test_success_monotone_in_horizon():
    t = build_transition_matrix(P8, 0.95)
    minima = minima_indices(P8)
    previous = None
    for horizon in (50, 100, 200, 400):
        report = success_probabilities(t, minima, horizon)
        if previous is not None:
            assert np.all(report.success >= previous - 1e-12)
        previous = report.success


def test_8number_structure_across_indices():
    minima = minima_indices(P8)
    t1 = build_transition_matrix(P8, 1.0)
    r1 = success_probabilities(t1, minima, 800)
    # greedy limit: a nonempty trapped class at exactly 0 and a fully
    # successful class at 1
    assert np.any(r1.success <= 1e-12)
    assert np.any(r1.success >= 1 - 1e-9)

    r99 = success_probabilities(build_transition_matrix(P8, 0.99), minima, 800)
    assert r99.min > 0.0

    r95 = success_probabilities(build_transition_matrix(P8, 0.95), minima, 800)
    assert r95.spread() < r99.spread() < r1.spread()


def test_greedy_basin_splitting_gives_fractional_success():
    # random-proposal descent from the all-minus config can end in either a
    # global or a local basin, so its success is strictly between 0 and 1
    # at every horizon (converged by ~200 proposals); success at the greedy
    # limit is therefore not two-valued over all configs
    minima = minima_indices(P8)
    t1 = build_transition_matrix(P8, 1.0)
    s0 = success_probabilities(t1, minima, 800).success[0]
    assert 0.05 < s0 < 0.95
    assert success_probabilities(t1, minima, 1600).success[0] == pytest.approx(s0)


def test_default_horizon_and_empty_minima():
    t = build_transition_matrix(P4, 1.0)
    report = success_probabilities(t, minima_indices(P4))
    assert report.horizon == 400
    with pytest.raises(ValueError):
        success_probabilities(t, [])


def test_negative_horizon_rejected():
    minima = minima_indices(P4)
    for p_chem in (0.95, 1.0):
        t = build_transition_matrix(P4, p_chem)
        with pytest.raises(ValueError, match="horizon"):
            success_probabilities(t, minima, -3)


def test_dense_capacity_cap():
    free = QuboProblem(0.0, np.zeros(15), np.zeros((15, 15)))
    assert np.all(build_transition_matrix(free, 1.0) == 1.0)
    # 2^14 configs times 2^13 sign patterns: rejected before allocating
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_transition_matrix(build_partition(list(range(1, 15))), 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the Monte-Carlo cross-check at index 1.0 has the same cap, checked before any draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError):
        empirical_success(build_partition(list(range(1, 22))), 1.0, 0, 10, 10, rng)
    assert rng.bit_generator.state == state


def test_trajectory_zero_steps():
    rng = np.random.default_rng(0)
    init = index_config(50, 8)
    assert trajectory(P8, 0.5, init, 0, rng) == [50]


def test_trajectory_trapped_at_index_one_never_hits_minima():
    minima = set(minima_indices(P8))
    t = build_transition_matrix(P8, 1.0)
    r = success_probabilities(t, sorted(minima), 800)
    trapped = int(np.argmin(r.success))
    assert r.success[trapped] < 1e-9
    for seed in range(5):
        path = trajectory(P8, 1.0, index_config(trapped, 8), 400, np.random.default_rng(seed))
        assert not (set(path) & minima)


def test_trajectory_random_walk_covers_more_configs():
    init = index_config(50, 8)
    for seed in range(5):
        greedy_path = trajectory(P8, 1.0, init, 300, np.random.default_rng(seed))
        random_path = trajectory(P8, 0.5, init, 300, np.random.default_rng(seed))
        assert len(set(random_path)) > len(set(greedy_path))


def test_empirical_success_matches_matrix():
    # the degenerate TSP at index 1.0: starts that reach a minimum only through
    # the zero-change flips that the solver's partner-term sum accepts
    cases = [(P4, p_chem, (0, 5, 9, 15)) for p_chem in (1.0, 0.95)]
    cases.append((TSP3_DEGENERATE, 1.0, (76, 101)))
    for p, p_chem, starts in cases:
        t = build_transition_matrix(p, p_chem)
        report = success_probabilities(t, minima_indices(p), 100)
        rng = np.random.default_rng(1234)
        for idx in starts:
            runs = 4000
            hit = empirical_success(p, p_chem, idx, 100, runs, rng)
            want = report.success[idx]
            sigma = math.sqrt(max(want * (1 - want), 1e-12) / runs)
            assert abs(hit - want) <= 3 * sigma + 1e-9


def _isin_success(p, p_chem, init_index, horizon, runs, rng):
    """The np.isin loop that empirical_success replaced, as its reference; at
    p_chem = 1 each chain's step is the solver's verdict (_solver_verdict)."""
    minima = np.array(sorted(minima_indices(p)), dtype=np.int64)
    ising = qubo_to_ising(p)
    verdict = _solver_verdict(p) if p_chem == 1.0 else None
    s = np.tile(bits_to_spins(index_config(init_index, p.n)).astype(float), (runs, 1))
    idx = np.full(runs, init_index, dtype=np.int64)
    hit = np.isin(idx, minima)
    rows = np.arange(runs)
    for _ in range(horizon):
        if hit.all():
            break
        h = rng.integers(p.n, size=runs)
        if verdict is not None:
            accept = verdict[idx, h]
        else:
            lin, pair = flip_terms(ising, s, h)
            accept = observed_change(lin, pair, p_chem, rng.random((runs, p.n))) <= 0.0
        flip_rows, flip_cols = rows[accept], h[accept]
        s[flip_rows, flip_cols] = -s[flip_rows, flip_cols]
        idx[accept] ^= np.int64(1) << flip_cols
        hit |= np.isin(idx, minima)
    return float(hit.mean())


def _trapped_stuck_start(p):
    """A start that greedy descent never leaves: zero success at index 1.0
    (found as demo_deterministic_index.py finds them) and no flip accepted."""
    t = build_transition_matrix(p, 1.0)
    trapped = np.flatnonzero(success_probabilities(t, minima_indices(p), 800).success <= 1e-12)
    return next(int(c) for c in trapped if not t[c].any())


def test_empirical_success_matches_isin_loop():
    cases = [
        (p, p_chem, start, 60, 300)
        for p in (P4, P8, TSP3, SAT4)
        for p_chem in (1.0, 0.95, 0.5, 0.0)
        for start in (0, 5, (1 << p.n) - 1, minima_indices(p)[0])
    ]
    cases += [
        (p, p_chem, 5, horizon, runs)
        for p in (P8, TSP3)
        for p_chem in (1.0, 0.95)
        for horizon, runs in ((0, 300), (1, 300), (60, 1), (1, 1))
    ]
    stuck = _trapped_stuck_start(P8)
    cases += [(P8, 1.0, stuck, horizon, runs) for horizon, runs in ((60, 300), (60, 1), (0, 5))]
    # benchmark starts in zero-change cycles (350 never reaches a minimum, 459
    # sometimes does), and a 2-SAT start whose every accepted flip is a zero change
    assert {true_delta(SAT4, index_config(6, 4), h) for h in range(4)} == {0.0}
    cases += [(P9, 1.0, start, 150, 300) for start in (350, 459)]
    cases += [(SAT4, 1.0, 6, horizon, runs) for horizon, runs in ((60, 300), (60, 1))]
    cases += [(TSP3_DEGENERATE, 1.0, start, 150, 300) for start in (76, 101)]
    for p, p_chem, start, horizon, runs in cases:
        want_rng, got_rng = np.random.default_rng(start), np.random.default_rng(start)
        want = _isin_success(p, p_chem, start, horizon, runs, want_rng)
        got = empirical_success(p, p_chem, start, horizon, runs, got_rng)
        assert got == want, (p.n, p_chem, start, horizon, runs)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, (p.n, p_chem, start, horizon, runs)


def _solver_verdict(p):
    """(2^n, n) bool: whether solve_type2's p_chem = 1 step accepts flip h
    from config c, decided one config and one flip at a time as the solver
    decides it: the 1-D partner terms summed through observed_change."""
    ising = qubo_to_ising(p)
    verdict = np.zeros((1 << p.n, p.n), dtype=bool)
    for c in range(1 << p.n):
        s = bits_to_spins(index_config(c, p.n)).astype(float)
        for h in range(p.n):
            lin, pair = flip_terms(ising, s, h)
            terms = pair[np.flatnonzero(ising.coupling[h])]
            verdict[c, h] = observed_change(lin, terms, 1.0) <= 0.0
    return verdict


def _reaches(targets, accept):
    """Reference: per start config, a depth-first search through the flips
    marked in `accept` (2^n, n) for a config in `targets` ((2^n,) bool)."""
    reaches = np.zeros(len(targets), dtype=bool)
    for start in range(len(targets)):
        seen, todo = {start}, [start]
        while todo and not reaches[start]:
            c = todo.pop()
            reaches[start] = targets[c]
            for b in (c ^ (1 << np.flatnonzero(accept[c]))).tolist():
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
    return reaches


@pytest.mark.parametrize("seed", [512, 3])
def test_classify_matches_backward_reachability(seed):
    rng = np.random.default_rng(seed)
    for p in (P8, P9, SAT4, TSP3, TSP3_DEGENERATE):
        is_min = np.zeros(1 << p.n, dtype=bool)
        is_min[minima_indices(p)] = True
        verdict = _solver_verdict(p)
        table = build_transition_matrix(p, 1.0) == 1.0
        assert np.array_equal(table, verdict), p.n
        # the backward fixed point holds for any target set, not just the minima
        for targets in (rng.random(1 << p.n) < q for q in (0.0, 0.02, 0.2)):
            assert np.array_equal(_doomed(table, targets), ~_reaches(targets, verdict)), (p.n, seed)
        differ = np.flatnonzero(_doomed(table, is_min) != ~_reaches(is_min, verdict)).tolist()
        assert differ == [], p.n


def test_empirical_success_rejects_start_out_of_range():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for start in (-1, 16):
        with pytest.raises(ValueError, match="init_index"):
            empirical_success(P4, 0.95, start, 10, 10, rng)
    with pytest.raises(ValueError, match="runs"):
        empirical_success(P4, 0.95, 0, 10, 0, rng)
    for p_chem in (1.5, -0.2, float("nan")):
        with pytest.raises(ValueError, match="p_chem"):
            empirical_success(P4, p_chem, 0, 10, 10, rng)
    with pytest.raises(ValueError, match="horizon"):
        empirical_success(P4, 0.95, 0, -3, 10, rng)
    assert rng.bit_generator.state == state


def test_solver_success_matches_matrix_law():
    # the scalar Type-2 solver, capped at the horizon, obeys the same law
    emin, _ = brute_force_min(P4)
    minima = set(minima_indices(P4))
    t = build_transition_matrix(P4, 0.95)
    report = success_probabilities(t, sorted(minima), 100)
    idx = 0
    runs = 1500
    hits = 0
    params = SolverParams(p_chem=0.95, max_steps=100, patience=0)
    for k in range(runs):
        trace = solve_type2(P4, params, np.random.default_rng(9000 + k), init=index_config(idx, 4))
        visited = {trace.init_config, *trace.configs}
        hits += bool(visited & minima)
    want = report.success[idx]
    sigma = math.sqrt(want * (1 - want) / runs)
    assert abs(hits / runs - want) <= 3 * sigma + 1e-9


def test_success_report_outputs(tmp_path):
    t = build_transition_matrix(P4, 0.95)
    report = success_probabilities(t, minima_indices(P4), 100)
    problem = {"kind": "partition", "numbers": [1, 3, 4, 8]}
    raw = {"kind": "markov", "problem": problem, "deterministic_indices": [0.95], "horizon": 100}
    run(ExperimentConfig.from_dict(dict(raw, out=str(tmp_path))), quiet=True)
    lines = (tmp_path / "success_0p95.csv").read_text().splitlines()
    assert lines[0] == "config,success" and len(lines) == 17
    assert lines[1:] == [f"{c},{v:.12g}" for c, v in enumerate(report.success)]
    data = json.loads((tmp_path / "success_0p95.json").read_text())
    assert data["p_chem"] == 0.95 and data["horizon"] == 100
    assert (data["min"], data["max"], data["mean"]) == (report.min, report.max, report.mean)
    counts, edges = report.histogram(10)
    assert counts.sum() == 16 and len(edges) == 11
