import json
import math

import numpy as np
import pytest

from chemca.chemodel import SingleCellHysteresisParams
from chemca.hybrid import (
    PairwiseChemistry,
    SolverParams,
    observed_change,
    solve_type1,
    solve_type2,
)
from chemca.qubo import (
    bits_to_spins,
    brute_force_min,
    build_2sat,
    build_partition,
    build_tsp,
    config_index,
    distance_matrix_from_coords,
    energy,
    flip_terms,
    index_config,
    qubo_to_ising,
    tour_from_config,
)

from .spin_bits import spins_to_bits

P4 = build_partition([1, 3, 4, 8])
P6 = build_partition([1, 3, 4, 6, 5, 1])
CITIES = [[0, 0], [1, 0], [3, 3], [0, 10]]


def perfect(**kw):
    kw.setdefault("hysteresis", SingleCellHysteresisParams(1.0))
    return SolverParams(**kw)


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(p_chem=1.2)
    with pytest.raises(ValueError):
        SolverParams(k_temp=0.0)


def observed_delta_e(p, s, h, consistency):
    """Observed change for flipping spin h of spin config s, with one
    consistency bit per coupled partner in ascending order (0 negates)."""
    ising = qubo_to_ising(p)
    lin, pair = flip_terms(ising, np.asarray(s, dtype=float), h)
    signs = 2.0 * np.asarray(consistency, dtype=float) - 1.0
    return float(observed_change(lin, pair[np.flatnonzero(ising.coupling[h])], 0.5, None, signs))


def test_observed_delta_all_consistent_equals_true():
    s = bits_to_spins([0, 1, 0, 1])
    for h in range(4):
        true_de = energy(P4, spins_to_bits(np.where(np.arange(4) == h, -s, s))) - energy(
            P4, spins_to_bits(s)
        )
        assert observed_delta_e(P4, s, h, [1, 1, 1]) == pytest.approx(true_de)


def test_observed_delta_all_inconsistent_flips_pairwise_part():
    s = bits_to_spins([0, 0, 0, 0])
    # partition problems have no linear spin term, so full inversion
    for h in range(4):
        assert observed_delta_e(P4, s, h, [0, 0, 0]) == pytest.approx(
            -observed_delta_e(P4, s, h, [1, 1, 1])
        )


def test_observed_delta_flip_to_zero_config():
    s = np.array([-1, -1, -1, -1])
    assert observed_delta_e(P4, s, 3, [1, 1, 1]) == pytest.approx(-256.0)


def test_observed_delta_linear_term_never_flipped():
    p = build_2sat([(1, 2), (2, -4), (3, 4)])
    s = bits_to_spins([0, 0, 0, 0])
    ok = observed_delta_e(p, s, 0, [1])
    bad = observed_delta_e(p, s, 0, [0])
    # variable 1 couples only to variable 2; averaging the two consistency
    # outcomes cancels the pairwise part and leaves the linear spin term
    lin, _ = flip_terms(qubo_to_ising(p), s.astype(float), 0)
    assert ok + bad == pytest.approx(2 * lin)


def test_observed_delta_wrong_bit_count():
    with pytest.raises(ValueError):
        observed_delta_e(P4, bits_to_spins([0, 0, 0, 0]), 0, [1, 1])


def test_type1_perfect_chemistry_solves_partition4():
    params = perfect(target_energy=0.0, max_steps=10_000)
    hits = 0
    for seed in range(50):
        trace = solve_type1(P4, params, np.random.default_rng(seed))
        if trace.best_energy == 0.0:
            hits += 1
            assert trace.best_config in (7, 8)  # (1,1,1,0) or (0,0,0,1)
    assert hits == 50


def test_type1_downhill_always_accepted():
    params = perfect(max_steps=2000)
    trace = solve_type1(P4, params, np.random.default_rng(5))
    for de, acc in zip(trace.observed_de, trace.accepted):
        if de <= 0:
            assert acc


def test_type1_uphill_acceptance_rate_matches_metropolis():
    params = perfect(max_steps=40_000, k_temp=5.0, patience=0)
    trace = solve_type1(P4, params, np.random.default_rng(11))
    by_de: dict[float, list[bool]] = {}
    for de, acc in zip(trace.observed_de, trace.accepted):
        if de > 0:
            by_de.setdefault(de, []).append(acc)
    checked = 0
    for de, accs in by_de.items():
        n = len(accs)
        want = math.exp(-de / 5.0)
        if n < 200 or want * n < 10:
            continue
        rate = sum(accs) / n
        assert abs(rate - want) < 3 * math.sqrt(want * (1 - want) / n) + 1e-9
        checked += 1
    assert checked >= 1


def test_type1_trace_energies_recomputable():
    params = SolverParams(hysteresis=SingleCellHysteresisParams(0.85), max_steps=500, patience=0)
    trace = solve_type1(P4, params, np.random.default_rng(21))
    for cfg, e in zip(trace.configs, trace.energies):
        assert energy(P4, index_config(cfg, 4)) == pytest.approx(e)


def test_type2_trace_energies_recomputable():
    trace = solve_type2(
        P6, SolverParams(p_chem=0.9, max_steps=800, patience=0), np.random.default_rng(8)
    )
    for cfg, e in zip(trace.configs, trace.energies):
        assert energy(P6, index_config(cfg, 6)) == pytest.approx(e)


def test_type2_pchem1_is_noninceasing_and_matches_greedy_path():
    params = SolverParams(p_chem=1.0, max_steps=400, patience=0)
    for seed in (0, 1, 2, 3, 10):
        init = np.random.default_rng(1000 + seed).integers(0, 2, 6).astype(np.uint8)
        trace = solve_type2(P6, params, np.random.default_rng(seed), init=init)
        assert all(
            b <= a + 1e-12 for a, b in zip(trace.energies, trace.energies[1:])
        )
        # greedy reference: a flip is taken exactly when it does not raise the energy
        x = init.copy()
        for h, acc, cfg, e in zip(trace.flips, trace.accepted, trace.configs, trace.energies):
            y = x.copy()
            y[h] ^= 1
            assert acc == (energy(P6, y) <= energy(P6, x))
            if acc:
                x = y
            assert cfg == config_index(x) and e == energy(P6, x)


def test_type2_pchem1_reaches_zero_from_origin():
    reached = 0
    for seed in range(20):
        trace = solve_type2(P4, SolverParams(p_chem=1.0), np.random.default_rng(seed),
                            init=np.zeros(4, np.uint8))
        reached += trace.energies[-1] == 0.0
    assert reached >= 15  # most seeds descend straight to a global minimum


def test_type2_reaches_minimum_partition4():
    params = SolverParams(p_chem=0.95, target_energy=0.0, max_steps=10_000)
    for seed in range(30):
        trace = solve_type2(P4, params, np.random.default_rng(seed))
        assert trace.best_energy == 0.0 and trace.success


def test_type2_8number_all_inits_reach_min_at_099():
    p8 = build_partition([1, 3, 4, 9, 3, 5, 3, 6])
    emin, _ = brute_force_min(p8)
    params = SolverParams(p_chem=0.99, target_energy=emin, max_steps=20_000)
    # repeated runs from every one of the 256 initial configs reach E_min
    rng = np.random.default_rng(7)
    for idx in range(0, 256, 7):
        init = index_config(idx, 8)
        assert any(
            solve_type2(p8, params, np.random.default_rng(int(rng.integers(2**32))), init=init).success
            for _ in range(4)
        )


def test_type2_half_index_acceptance_rate():
    # at p_chem = 0.5 the sign pattern is symmetric: acceptance is 1/2 per
    # flip except where the terms can sum to exactly zero. For {1,3,4,8}
    # only variable 4 has such a pattern (16 + 48 = 64), accepted 5/8 of
    # the time, so the uniform-proposal average is (3/2 + 5/8)/4.
    params = SolverParams(p_chem=0.5, max_steps=20_000, patience=0)
    trace = solve_type2(P4, params, np.random.default_rng(3))
    rate = sum(trace.accepted) / len(trace.accepted)
    n = len(trace.accepted)
    want = (3 * 0.5 + 0.625) / 4
    assert abs(rate - want) < 3 * math.sqrt(want * (1 - want) / n)


def test_type1_tsp_decodes_optimal_tour():
    tsp = build_tsp(distance_matrix_from_coords(CITIES))
    emin, _ = brute_force_min(tsp)
    params = perfect(target_energy=emin + 1e-9, max_steps=60_000, k_temp=0.05)
    done = None
    for seed in range(8):
        trace = solve_type1(tsp, params, np.random.default_rng(seed))
        if trace.success:
            done = trace
            break
    assert done is not None
    tour = tour_from_config(index_config(done.best_config, 16), 4)
    assert tour is not None
    pairs = {(i + 1, c + 1) for i, c in enumerate(tour)}
    # the optimal cycle A-B-C-D in some rotation/direction
    order = [c for _, c in sorted(pairs)]
    edges = {frozenset((order[i], order[(i + 1) % 4])) for i in range(4)}
    assert edges == {
        frozenset((1, 2)), frozenset((2, 3)), frozenset((3, 4)), frozenset((4, 1))
    }


def test_seed_determinism_full_traces():
    params = SolverParams(p_chem=0.9, max_steps=300, patience=0)
    a = solve_type2(P4, params, np.random.default_rng(42))
    b = solve_type2(P4, params, np.random.default_rng(42))
    assert a.configs == b.configs and a.energies == b.energies
    assert a.observed_de == b.observed_de
    c = solve_type1(P4, perfect(max_steps=300, patience=0), np.random.default_rng(42))
    d = solve_type1(P4, perfect(max_steps=300, patience=0), np.random.default_rng(42))
    assert c.configs == d.configs


def test_patience_stops_trapped_run():
    params = SolverParams(p_chem=1.0)  # no target: patience defaults to 50*n
    trace = solve_type2(P4, params, np.random.default_rng(1), init=index_config(8, 4))
    assert trace.n_steps <= 50 * 4 + 1


def test_trace_jsonl_and_summary(tmp_path):
    params = SolverParams(p_chem=0.95, max_steps=200, patience=0)
    trace = solve_type2(P4, params, np.random.default_rng(9))
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == trace.n_steps
    first = json.loads(lines[0])
    assert set(first) == {
        "step", "flip", "observed_de", "true_de", "accepted", "config", "energy", "best_energy",
    }
    summary = trace.summary()
    assert summary["steps"] == trace.n_steps
    assert summary["best_energy"] == trace.best_energy


def test_chemodel_backend_runs_and_solves():
    chem = PairwiseChemistry(P4.n, SingleCellHysteresisParams(0.95))
    params = SolverParams(target_energy=0.0, max_steps=20_000)
    trace = solve_type2(P4, params, np.random.default_rng(2), chemistry=chem)
    assert trace.best_energy == 0.0


def test_init_respected():
    init = index_config(5, 4)
    trace = solve_type2(P4, SolverParams(max_steps=0), np.random.default_rng(0), init=init)
    assert trace.init_config == 5
    with pytest.raises(ValueError):
        solve_type2(P4, SolverParams(), np.random.default_rng(0), init=[0, 1])
