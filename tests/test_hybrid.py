import json
import math

import numpy as np
import pytest

from chemca import hybrid, qubo
from chemca.chemodel import SingleCellHysteresisParams, table_single
from chemca.hybrid import (
    PairwiseChemistry,
    SolverParams,
    SolveTrace,
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
from .test_qubo import explicit_float

P4 = build_partition([1, 3, 4, 8])
P6 = build_partition([1, 3, 4, 6, 5, 1])
CITIES = [[0, 0], [1, 0], [3, 3], [0, 10]]


def perfect(**kw):
    kw.setdefault("hysteresis", SingleCellHysteresisParams(1.0))
    return SolverParams(**kw)


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(p_chem=1.2)
    for k_temp in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="k_temp"):
            SolverParams(k_temp=k_temp)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target_energy"):
            SolverParams(target_energy=target)


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


class TopDraw:
    """A generator stand-in whose every uniform draw starts at the largest
    double below 1; the rest of each draw is 0.5."""

    def random(self, size=None):
        u = np.full(size, 0.5)
        u[0] = 1.0 - 2.0**-53
        return u


@pytest.mark.parametrize("n", [1, 3, 16, 17])
def test_flip_spin_below_n_at_top_uniform(n):
    assert int((1.0 - 2.0**-53) * n) == n - 1
    p = build_partition(list(range(1, n + 1)))
    params = SolverParams(max_steps=1, patience=0, p_chem=0.5)
    for solve in (solve_type1, solve_type2):
        trace = solve(p, params, TopDraw(), init=np.zeros(n, np.uint8))
        assert trace.flips == [n - 1], solve.__name__


def test_init_respected():
    init = index_config(5, 4)
    trace = solve_type2(P4, SolverParams(max_steps=0), np.random.default_rng(0), init=init)
    assert trace.init_config == 5
    with pytest.raises(ValueError):
        solve_type2(P4, SolverParams(), np.random.default_rng(0), init=[0, 1])


# ---- reference loops ------------------------------------------------------
# Type 1 as first written: three energy evaluations per proposal, config
# indices as Python-int sums, one json.dumps per trace line. Type 2 as it
# stood with its own copy of the run loop, its checks as +-1 signs times the
# terms. Both draw by the one-draw contract: u = random(n + 2) per proposal,
# h = int(u[0] * n), then the readouts and acceptance uniform (Type 1) or
# the partner checks (Type 2) from u[1:]. Each solver must reproduce its
# reference float for float and draw for draw.

def reference_index(x) -> int:
    return sum(int(v) << i for i, v in enumerate(x))


def reference_write_jsonl(trace, path):
    with open(path, "w") as fh:
        for t in range(trace.n_steps):
            row = {
                "step": t,
                "flip": trace.flips[t],
                "observed_de": trace.observed_de[t],
                "true_de": trace.true_de[t],
                "accepted": trace.accepted[t],
                "config": trace.configs[t],
                "energy": trace.energies[t],
                "best_energy": trace.best_energies[t],
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def reference_stop(trace, params, since_accept, patience):
    if params.target_energy is not None and trace.best_energy <= params.target_energy + 1e-12:
        trace.success = True
        return True
    return patience is not None and since_accept >= patience


def reference_type1(p, params, rng):
    cmd = rng.integers(0, 2, p.n).astype(np.uint8)
    law = table_single(params.hysteresis)
    read = (rng.random(p.n) < law[cmd, 0]).astype(np.uint8)
    e_read = energy(p, read)
    trace = SolveTrace(p.n, reference_index(read))
    trace.best_energy = e_read
    trace.best_config = reference_index(read)
    patience = params.resolved_patience(p.n)
    since_accept = 0
    if params.target_energy is not None and e_read <= params.target_energy + 1e-12:
        trace.success = True
        return trace
    for _ in range(params.max_steps):
        u = rng.random(p.n + 2)
        h = int(u[0] * p.n)
        e_cmd_old = energy(p, cmd)
        cmd[h] ^= 1
        true_de = energy(p, cmd) - e_cmd_old
        new_read = (u[1 : p.n + 1] < law[cmd, read]).astype(np.uint8)
        e_new = energy(p, new_read)
        obs_de = e_new - e_read
        accept = obs_de <= 0.0 or u[p.n + 1] < math.exp(-obs_de / params.k_temp)
        if accept:
            read = new_read
            e_read = e_new
            since_accept = 0
        else:
            cmd[h] ^= 1
            since_accept += 1
        trace.record(h, obs_de, true_de, accept, reference_index(read), e_read)
        if reference_stop(trace, params, since_accept, patience):
            break
    return trace


def reference_type2(p, params, rng, chemistry=None):
    x = rng.integers(0, 2, p.n).astype(np.uint8)
    s = bits_to_spins(x).astype(float)
    ising = qubo_to_ising(p)
    partners = [np.flatnonzero(ising.coupling[h]) for h in range(p.n)]
    e_true = energy(p, x)
    trace = SolveTrace(p.n, config_index(x))
    trace.best_energy = e_true
    trace.best_config = config_index(x)
    patience = params.resolved_patience(p.n)
    since_accept = 0
    if params.target_energy is not None and e_true <= params.target_energy + 1e-12:
        trace.success = True
        return trace
    for _ in range(params.max_steps):
        u = rng.random(p.n + 2)
        h = int(u[0] * p.n)
        lin, pair = flip_terms(ising, s, h)
        terms = pair[partners[h]]
        true_de = lin + terms.sum()
        if chemistry is not None:
            bits = [chemistry.check(h, int(j), int(x[h] ^ 1), int(x[j]), rng) for j in partners[h]]
            signs = 2.0 * np.array(bits, dtype=float) - 1.0
        else:  # all +1 at p_chem = 1, where u < 1 always holds
            signs = np.where(u[1 : len(terms) + 1] < params.p_chem, 1.0, -1.0)
        obs_de = lin + (signs * terms).sum()
        accept = obs_de <= 0.0
        if accept:
            x[h] ^= 1
            s[h] = -s[h]
            e_true = energy(p, x)
            since_accept = 0
        else:
            since_accept += 1
        trace.record(h, obs_de, true_de, accept, config_index(x), e_true)
        if reference_stop(trace, params, since_accept, patience):
            break
    return trace


TRACE_LISTS = ("flips", "observed_de", "true_de", "accepted", "configs", "energies", "best_energies")
REFERENCE_PROBLEMS = {
    "p4": P4,
    "tsp4": build_tsp(distance_matrix_from_coords(CITIES)),
    "2sat": build_2sat([(1, 2), (2, -4), (3, 4), (1, -3), (-1, -2)]),
    # above qubo._TABLE_VARS: the solvers score configs through energy()
    "explicit17": explicit_float(qubo._TABLE_VARS + 1, 17),
}
TYPE1_CASES = {
    "pread0.9": dict(hysteresis=SingleCellHysteresisParams(0.9)),
    "pread1.0": dict(hysteresis=SingleCellHysteresisParams(1.0), k_temp=0.5),
}
TYPE2_CASES = {  # SolverParams keywords, chemical-loop backend
    "pchem1.0": (dict(p_chem=1.0), False),
    "pchem0.95": (dict(p_chem=0.95), False),
    "pairwise": (dict(), True),
}


def stop_params(p):
    emin, _ = brute_force_min(p)
    return {"target": dict(target_energy=emin), "patience0": dict(patience=0), "default": dict()}


@pytest.mark.parametrize("case", list(TYPE1_CASES))
@pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
def test_type1_matches_reference_loop(name, case, tmp_path):
    p = REFERENCE_PROBLEMS[name]
    for stop, stop_kw in stop_params(p).items():
        params = SolverParams(max_steps=1000, **TYPE1_CASES[case], **stop_kw)
        for seed in range(2):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = solve_type1(p, params, got_rng), reference_type1(p, params, want_rng)
            where = (stop, seed)
            for attr in TRACE_LISTS:
                assert getattr(got, attr) == getattr(want, attr), (attr, where)
            assert got.summary() == want.summary(), where
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, where
            got.write_jsonl(tmp_path / "got.jsonl")
            reference_write_jsonl(want, tmp_path / "want.jsonl")
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes(), where


def test_type1_scores_each_config_once(monkeypatch):
    # the reference loop scores three configs per proposal. Up to
    # qubo._TABLE_VARS variables the solver reads them all from the
    # problem's table and calls energy() for the start's readout alone;
    # above, it makes one energy() call per distinct config. Either way one
    # config_index() call per proposal, plus the start's
    real_energy = energy
    params = SolverParams(max_steps=3000, patience=0, hysteresis=SingleCellHysteresisParams(0.9))
    for name in ("tsp4", "explicit17"):
        p, want, got, indexed = REFERENCE_PROBLEMS[name], [], [], []
        monkeypatch.setitem(globals(), "energy", lambda q, x: want.append(reference_index(x)) or real_energy(q, x))
        reference_type1(p, params, np.random.default_rng(7))
        monkeypatch.undo()
        monkeypatch.setattr(hybrid, "energy", lambda q, x: got.append(reference_index(x)) or real_energy(q, x))
        monkeypatch.setattr(hybrid, "config_index", lambda x: indexed.append(1) or config_index(x))
        trace = solve_type1(p, params, np.random.default_rng(7))
        monkeypatch.undo()
        assert trace.n_steps == 3000 and len(want) == 3 * 3000 + 1
        if p.n <= qubo._TABLE_VARS:
            assert got == [trace.init_config], name
        else:
            assert len(got) == len(set(got)) and set(got) == set(want)
        for cfg, e in zip(trace.configs, trace.energies):
            assert e == real_energy(p, index_config(cfg, p.n))
        assert trace.n_steps <= len(indexed) <= trace.n_steps + 2


@pytest.mark.parametrize("case", list(TYPE2_CASES))
@pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
def test_type2_matches_reference_loop(name, case):
    p = REFERENCE_PROBLEMS[name]
    kw, pairwise = TYPE2_CASES[case]
    for stop, stop_kw in stop_params(p).items():
        params = SolverParams(max_steps=1000, **kw, **stop_kw)
        for seed in range(2):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got_chem, want_chem = (
                PairwiseChemistry(p.n, SingleCellHysteresisParams(0.95)) if pairwise else None for _ in range(2)
            )
            got = solve_type2(p, params, got_rng, chemistry=got_chem)
            want = reference_type2(p, params, want_rng, want_chem)
            where = (stop, seed)
            for attr in TRACE_LISTS:
                assert getattr(got, attr) == getattr(want, attr), (attr, where)
            assert got.summary() == want.summary(), where
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, where
            if pairwise:
                assert got_chem.cs.tolist() == want_chem.cs.tolist(), where


@pytest.mark.parametrize("case", list(TYPE2_CASES))
@pytest.mark.parametrize("name", list(REFERENCE_PROBLEMS))
def test_type2_jsonl_matches_json_dumps(name, case, tmp_path):
    p = REFERENCE_PROBLEMS[name]
    kw, pairwise = TYPE2_CASES[case]
    for stop, stop_kw in stop_params(p).items():
        params = SolverParams(max_steps=1000, **kw, **stop_kw)
        for seed in range(2):
            chem = PairwiseChemistry(p.n, SingleCellHysteresisParams(0.95)) if pairwise else None
            trace = solve_type2(p, params, np.random.default_rng(seed), chemistry=chem)
            trace.write_jsonl(tmp_path / "got.jsonl")
            reference_write_jsonl(trace, tmp_path / "want.jsonl")
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes(), (stop, seed)


EDGE_FLOATS = {
    "finite": [-0.0, 5e-324, 1e16, 1e300, -1e300, 0.1, -2.5],
    "non-finite": [-0.0, 5e-324, 1e16, 1e300, math.inf, -math.inf, math.nan],
}


@pytest.mark.parametrize("values", list(EDGE_FLOATS))
def test_jsonl_lines_equal_json_dumps_on_edge_values(values, tmp_path):
    trace = SolveTrace(3, 0)
    floats = EDGE_FLOATS[values]
    for t, v in enumerate(floats):
        trace.record(t % 3, v, -v, t % 2 == 0, (1 << 70) + t, floats[-1 - t])
    # numpy scalars as a solver could pass them
    trace.record(np.int64(2), np.float64(-0.0), np.float64(1e16), np.bool_(True), np.int64(5), np.float64(5e-324))
    trace.record(np.int64(1), np.float64(floats[-1]), np.float64(0.3), np.bool_(False), np.int64(0), np.float64(-1.5))
    trace.write_jsonl(tmp_path / "got.jsonl")
    reference_write_jsonl(trace, tmp_path / "want.jsonl")
    got = (tmp_path / "got.jsonl").read_text().splitlines(keepends=True)
    want = (tmp_path / "want.jsonl").read_text().splitlines(keepends=True)
    assert len(got) == trace.n_steps
    assert got == want  # each line is json.dumps(row, sort_keys=True) + "\n"
