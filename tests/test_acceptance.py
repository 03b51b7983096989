"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The population-dynamics criterion is the slow one (about 19 s
on a 2-vCPU Xeon); everything else finishes in seconds.
"""

import json
import math

import numpy as np
import pytest

from chemca.cca1d import MODE_DISPLAY, MODE_PROBABILISTIC, Rule1D, default_chain, run_1d, single_seed
from chemca.cca2d import PwmGrid, cca2d_update, run_population_experiment
from chemca.chemodel import PwmClass, SingleCellHysteresisParams
from chemca.harness import ExperimentConfig, derive_seed, run, run_from_manifest, stream_rng
from chemca.hybrid import SolverParams, solve_type1, solve_type2
from chemca.lattice import chemical_state_count, expansion_ratio, format_scientific, input_state_count
from chemca.markov import build_transition_matrix, empirical_success, success_probabilities
from chemca.qubo import (
    brute_force_min,
    build_2sat,
    build_partition,
    build_tsp,
    distance_matrix_from_coords,
    energy,
    index_config,
)
from chemca.signals import ColorState, GlobalClock, LocalClock, decode_trace, global_clock_step, local_clock_step, synthesize_trace

from .eca_reference import eca_run
from .spin_bits import spins_to_bits

CITIES = [[0, 0], [1, 0], [3, 3], [0, 10]]
SAT1 = [(1, 2), (2, -4), (3, 4)]
SAT2 = [(1, 2), (2, -4), (3, 4), (1, -3), (1, -2), (-3, 4)]
S8 = [1, 3, 4, 9, 3, 5, 3, 6]


def _announce(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def test_c01_golden_hamiltonians():
    p4 = build_partition([1, 3, 4, 8])
    assert p4.offset == 256.0
    assert p4.linear.tolist() == [-60.0, -156.0, -192.0, -256.0]
    assert p4.quad.tolist() == [
        [0, 12, 16, 32], [12, 0, 48, 96], [16, 48, 0, 128], [32, 96, 128, 0],
    ]
    s1 = build_2sat(SAT1)
    assert s1.offset == 8.0 and s1.linear.tolist() == [-4.0, -4.0, -4.0, 0.0]
    pair1 = s1.pairwise()
    assert pair1[0, 1] == 4.0 and pair1[1, 3] == -4.0 and pair1[2, 3] == 4.0
    assert np.count_nonzero(pair1) == 6
    s2 = build_2sat(SAT2)
    assert s2.offset == 8.0 and s2.linear.tolist() == [-4.0, 0.0, 4.0, 0.0]
    pair2 = s2.pairwise()
    assert pair2[0, 2] == -4.0 and pair2[1, 3] == -4.0
    assert np.count_nonzero(pair2) == 4
    tsp = build_tsp(distance_matrix_from_coords(CITIES))
    pair = tsp.pairwise()
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
        assert abs(pair[a, b] - want) < 5e-4
    assert tsp.offset == 8.0 and set(tsp.linear.tolist()) == {-2.0}
    _announce(1, "partition/2-SAT/TSP builders reproduce the printed coefficients")


def test_c02_oracle_solutions():
    emin, minima = brute_force_min(build_partition([1, 3, 4, 8]))
    assert emin == 0.0
    assert {tuple(index_config(i, 4)) for i in minima} == {(0, 0, 0, 1), (1, 1, 1, 0)}
    emin6, minima6 = brute_force_min(build_partition([1, 3, 4, 6, 5, 1]))
    got6 = {tuple(index_config(i, 6)) for i in minima6}
    assert emin6 == 0.0
    assert (1, 1, 0, 0, 1, 1) in got6 and (0, 0, 1, 1, 0, 0) in got6  # {1,3,5,1} vs {4,6}
    assert (1, 1, 0, 1, 0, 0) in got6  # degenerate split {1,3,6}
    _, sat1_minima = brute_force_min(build_2sat(SAT1))
    assert (1, 0, 1, 0) in {tuple(index_config(i, 4)) for i in sat1_minima}
    _, sat2_minima = brute_force_min(build_2sat(SAT2))
    assert (1, 1, 0, 1) in {tuple(index_config(i, 4)) for i in sat2_minima}
    emin_tsp, _ = brute_force_min(build_tsp(distance_matrix_from_coords(CITIES)))
    assert abs(emin_tsp - 0.2212) < 5e-4
    _announce(2, "exhaustive minima match the published solutions")


def test_c03_solver_reproduction():
    problems = {
        "partition4": build_partition([1, 3, 4, 8]),
        "partition6": build_partition([1, 3, 4, 6, 5, 1]),
        "2sat-3clause": build_2sat(SAT1),
        "2sat-6clause": build_2sat(SAT2),
        "tsp4": build_tsp(distance_matrix_from_coords(CITIES)),
    }
    rates = {}
    for name, p in problems.items():
        emin, _ = brute_force_min(p)
        type1 = SolverParams(
            target_energy=emin + 1e-9, max_steps=10_000,
            hysteresis=SingleCellHysteresisParams(1.0),
        )
        type2 = SolverParams(p_chem=0.95, target_energy=emin + 1e-9, max_steps=10_000)
        for tag, solver, params in (("t1", solve_type1, type1), ("t2", solve_type2, type2)):
            wins = sum(
                solver(p, params, np.random.default_rng(derive_seed(77, k))).best_energy
                <= emin + 1e-9
                for k in range(100)
            )
            rates[f"{name}/{tag}"] = wins
            assert wins >= 95, f"{name}/{tag}: {wins}/100"
    # energies of every intermediate configuration printed in the worked traces
    p4 = build_partition([1, 3, 4, 8])
    printed_traces = {
        (-1, -1, -1, -1): 256.0, (-1, 1, -1, -1): 100.0, (1, 1, -1, -1): 64.0,
        (-1, 1, -1, 1): 36.0, (-1, 1, 1, 1): 196.0, (-1, -1, -1, 1): 0.0,
        (-1, 1, 1, -1): 4.0, (1, 1, -1, 1): 64.0,
    }
    for spins, want in printed_traces.items():
        assert energy(p4, spins_to_bits(spins)) == want
    worst = min(rates.values())
    _announce(3, f"both solvers reach the oracle minimum (worst case {worst}/100 runs)")


def test_c04_deterministic_index_study():
    p8 = build_partition(S8)
    _, minima = brute_force_min(p8)
    reports = {
        idx: success_probabilities(build_transition_matrix(p8, idx), minima, 800)
        for idx in (1.0, 0.99, 0.95)
    }
    s1 = reports[1.0].success
    trapped = int((s1 <= 1e-12).sum())
    certain = int((s1 >= 1 - 1e-9).sum())
    assert trapped > 0, "greedy limit must have a trapped class"
    assert certain > 0
    assert reports[0.99].min > 0.0, "every config reaches the minimum at 0.99"
    spread = {idx: r.spread() for idx, r in reports.items()}
    assert spread[0.95] < spread[0.99] < spread[1.0]
    _announce(
        4,
        f"index study at horizon 800: {trapped} trapped configs at 1.0, "
        f"floor {reports[0.99].min:.4f} at 0.99, spreads "
        f"{spread[0.95]:.2e} < {spread[0.99]:.4f} < {spread[1.0]:.1f}",
    )


def test_c05_markov_monte_carlo_agreement():
    p4 = build_partition([1, 3, 4, 8])
    _, minima = brute_force_min(p4)
    runs = 10_000
    worst_pull = 0.0
    # horizon 10 keeps the success values fractional so the binomial test
    # has teeth; at the default 400 the chain has saturated and the two
    # routes must agree to within float fuzz
    for p_chem in (1.0, 0.95):
        for horizon in (10, 400):
            report = success_probabilities(
                build_transition_matrix(p4, p_chem), minima, horizon
            )
            rng = np.random.default_rng(derive_seed(404, int(p_chem * 100) + horizon))
            for init in range(16):
                got = empirical_success(p4, p_chem, init, horizon, runs, rng)
                want = report.success[init]
                sigma = math.sqrt(max(want * (1.0 - want), 0.0) / runs)
                assert abs(got - want) <= 3 * sigma + 1e-9, (p_chem, horizon, init, got, want)
                if sigma > 1e-6:
                    worst_pull = max(worst_pull, abs(got - want) / sigma)
    _announce(5, f"10^4-run empirical success within 3 sigma for all 16 inits (worst {worst_pull:.2f} sigma)")


def test_c06_eca_display_mode():
    grid = default_chain(7)
    init = single_seed(7)
    for rule_a in (30, 110, 250):
        raster = run_1d(grid, init, Rule1D(rule_a, 0), 25, mode=MODE_DISPLAY)
        assert raster.tolist() == eca_run(rule_a, list(init), 25), f"rule {rule_a}"
    _announce(6, "display-screen rasters match the reference ECA bit-for-bit")


def test_c07_1d_cca_degeneration():
    grid = default_chain(7)
    init = single_seed(7)
    rules = [30, 110, 250, 90, 54, 60, 102, 150, 158, 184]
    for rule_a in rules:
        rule = Rule1D.from_label(f"{rule_a}-1")
        assert rule.rule_b == 0
        display = run_1d(grid, init, rule, 25, mode=MODE_DISPLAY)
        for seed in range(100):
            prob = run_1d(
                grid, init, rule, 25, mode=MODE_PROBABILISTIC,
                rng=np.random.default_rng(derive_seed(7100, seed)),
            )
            assert np.array_equal(display, prob)
    _announce(7, "interface-off rules are sample-path-identical to display mode (10 rules x 100 seeds)")


def test_c08_chemit_micro_events():
    def chemit(pwm, r, c):
        pwm.classes[r, c] = PwmClass.CORE
        for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            pwm.classes[(r + dr) % 5, (c + dc) % 5] = PwmClass.HALO

    def cores(pwm):
        return {tuple(x) for x in np.argwhere(pwm.classes == PwmClass.CORE)}

    # propagation: high CS at a nearest neighbor moves the core there
    pwm = PwmGrid(np.zeros((5, 5), np.int8))
    chemit(pwm, 2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 3] = 1
    new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(1))
    assert counts.propagation == 1 and cores(new) == {(2, 3)}

    # replication: high CS at a next-nearest neighbor copies the core
    pwm = PwmGrid(np.zeros((5, 5), np.int8))
    chemit(pwm, 2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[3, 3] = 1
    new, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(1))
    assert counts.replication == 1 and cores(new) == {(2, 2), (3, 3)}

    # random selection among multiple high neighbors
    pwm = PwmGrid(np.zeros((5, 5), np.int8))
    chemit(pwm, 2, 2)
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 3] = 1
    cs[3, 3] = 1
    kinds = set()
    for seed in range(60):
        _, counts = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
        assert counts.random_selection == 1
        kinds.add("prop" if counts.propagation else "repl")
    assert kinds == {"prop", "repl"}

    # competition outcome frequencies: 25% both live, 25% both die, 50% one
    pwm = PwmGrid(np.zeros((5, 5), np.int8))
    pwm.classes[2, 1] = PwmClass.CORE
    pwm.classes[2, 2] = PwmClass.CORE
    cs = np.zeros((5, 5), np.uint8)
    cs[2, 1] = 1
    cs[2, 2] = 1
    tallies = {0: 0, 1: 0, 2: 0}
    n = 10_000
    for seed in range(n):
        new, _ = cca2d_update(pwm, cs, 0, np.random.default_rng(derive_seed(808, seed)))
        tallies[len(cores(new))] += 1
    assert abs(tallies[2] / n - 0.25) < 0.02
    assert abs(tallies[0] / n - 0.25) < 0.02
    assert abs(tallies[1] / n - 0.50) < 0.02
    _announce(
        8,
        f"micro-events reproduce the published classes; competition split "
        f"{tallies[2]/n:.3f}/{tallies[0]/n:.3f}/{tallies[1]/n:.3f}",
    )


@pytest.mark.slow
def test_c09_population_dynamics():
    late = {}
    for init in (1, 10, 100):
        res = run_population_experiment(50, init, 7000, [stream_rng(2026, k) for k in range(10)])
        late[init] = res.late_mean(2000)
    vals = sorted(late.values())
    rel_spread = (vals[-1] - vals[0]) / (sum(vals) / len(vals))
    assert rel_spread <= 0.20, f"late means {late} spread {rel_spread:.3f}"

    sizes = {}
    for side in (10, 20, 50):
        res = run_population_experiment(side, 10, 3000, [stream_rng(2027, k) for k in range(10)])
        sizes[side] = res.late_mean(1500)
    assert sizes[10] < sizes[20] < sizes[50], sizes
    _announce(
        9,
        f"steady populations converge (spread {rel_spread:.2f}) and scale with grid "
        f"size ({sizes[10]:.1f} < {sizes[20]:.1f} < {sizes[50]:.1f})",
    )


def test_c10_counting():
    assert format_scientific(input_state_count(7, 4, 2), 3) == "6.12e54"
    assert format_scientific(chemical_state_count(7, 2), 2) == "5.6e14"
    assert format_scientific(expansion_ratio(7, 2, 2, 2), 2) == "1.9e25"
    _announce(10, "configuration-space counts print 6.12e54 / 5.6e14 / 1.9e25")


def test_c11_clock_and_rfsm():
    # all six local-clock branches
    table = [
        (LocalClock.NONE, 0, LocalClock.TOCK),
        (LocalClock.TICK, 0, LocalClock.TOCK),
        (LocalClock.TOCK, 0, LocalClock.TOCK),
        (LocalClock.NONE, 1, LocalClock.TICK),
        (LocalClock.TICK, 1, LocalClock.TICK),
        (LocalClock.TOCK, 1, LocalClock.TICK),
    ]
    for state, bit, want in table:
        assert local_clock_step(state, bit) is want
    # global transitions: tick on first local tick; tock needs all red and
    # enough tocks; firing resets the locals
    g, fired = global_clock_step(GlobalClock("1d"), [LocalClock.TICK] + [LocalClock.NONE] * 6)
    assert g.state == "tick" and not fired
    locals_ = [LocalClock.TOCK] * 7
    g, fired = global_clock_step(GlobalClock("1d", "tick"), locals_)
    assert fired and all(c is LocalClock.NONE for c in locals_)
    locals_ = [LocalClock.TOCK, LocalClock.TOCK] + [LocalClock.NONE] * 5
    _, fired = global_clock_step(GlobalClock("1d", "tick"), locals_)
    assert fired
    locals_ = [LocalClock.TOCK] * 6 + [LocalClock.TICK]
    _, fired = global_clock_step(GlobalClock("1d", "tick"), locals_)
    assert not fired
    locals_ = [LocalClock.TOCK] * 14 + [LocalClock.NONE] * 35
    _, fired = global_clock_step(GlobalClock("2d", "tick"), locals_)
    assert not fired
    locals_ = [LocalClock.TOCK] * 15 + [LocalClock.NONE] * 34
    _, fired = global_clock_step(GlobalClock("2d", "tick"), locals_)
    assert fired
    # published color sequences
    assert decode_trace([ColorState.RED, ColorState.LIGHT_BLUE, ColorState.BLUE,
                         ColorState.LIGHT_BLUE, ColorState.RED]) == [1]
    assert decode_trace([ColorState.RED, ColorState.LIGHT_BLUE, ColorState.RED]) == [0]
    assert decode_trace([ColorState.RED, ColorState.BLUE, ColorState.RED]) == [1]
    # synthesize -> decode round trip at jitter 0 over 10^3 cases
    rng = np.random.default_rng(derive_seed(1111, 0))
    for case in range(1000):
        target = case % 2
        period = 4 + int(rng.integers(0, 20))
        assert decode_trace(synthesize_trace(target, period, 0, rng)) == [target]
    _announce(11, "clock pseudocode conformance and 1000/1000 round-trip decodes")


def test_c12_manifest_determinism(tmp_path):
    experiments = [
        {"kind": "cca1d", "rule": "30-5", "cells": 7, "steps": 25, "seed": 9},
        {
            "kind": "solve",
            "problem": {"kind": "partition", "numbers": [1, 3, 4, 8]},
            "solver": 2, "p_chem": 0.95, "max_steps": 400, "seed": 9, "replicas": 2,
        },
        {"kind": "cca2d", "side": 10, "steps": 50, "initial_chemits": 3, "seed": 9},
    ]
    for raw in experiments:
        first = dict(raw, out=str(tmp_path / raw["kind"]))
        manifest = run(ExperimentConfig.from_dict(first), quiet=True)
        rerun_dir = tmp_path / (raw["kind"] + "_rerun")
        run_from_manifest(tmp_path / raw["kind"] / "manifest.json", rerun_dir)
        for name in manifest.outputs:
            a = (tmp_path / raw["kind"] / name).read_bytes()
            b = (rerun_dir / name).read_bytes()
            assert a == b, f"{raw['kind']}/{name} not reproducible"
        ma = json.loads((tmp_path / raw["kind"] / "manifest.json").read_text())
        mb = json.loads((rerun_dir / "manifest.json").read_text())
        for key in ("kind", "config", "config_hash", "master_seed", "outputs"):
            assert ma[key] == mb[key]
    _announce(12, "manifest re-runs reproduce every output byte-for-byte")
