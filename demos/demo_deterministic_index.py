"""Deterministic-index study on the 8-number partition problem.

Builds the exact one-proposal acceptance table of the Type-2 chain over
all 256 spin configurations and computes, for every starting config, the
probability of hitting a global minimum within the horizon. Pure greedy
(index 1.0) strands a whole class of starts in local minima; a slightly
probabilistic chemistry (0.99, 0.95) frees all of them.
"""

import numpy as np

from chemca.hybrid import SolverParams, solve_type2
from chemca.markov import build_transition_matrix, empirical_success, success_probabilities
from chemca.qubo import brute_force_min, build_partition, index_config

numbers = [1, 3, 4, 9, 3, 5, 3, 6]
p8 = build_partition(numbers)
emin, minima = brute_force_min(p8)
print(f"numbers {numbers}: minimum energy {emin} at {len(minima)} of 256 configs")

horizon = 800
reports = {}
for index in (1.0, 0.99, 0.95, 0.5):
    t = build_transition_matrix(p8, index)
    reports[index] = success_probabilities(t, minima, horizon)

print(f"\nsuccess probability over all 256 starts (horizon {horizon} proposals):")
print(f"{'index':>6} {'min':>8} {'mean':>8} {'max':>8} {'spread*':>9}   histogram over [0,1]")
for index, r in reports.items():
    counts, _ = r.histogram(10)
    bars = "".join(str(min(int(c), 9)) if c else "." for c in counts)
    print(f"{index:>6} {r.min:8.4f} {r.mean:8.4f} {r.max:8.4f} {r.spread():9.2e}   |{bars}|")
print("  (*max - min over non-minimum starts)")

trapped = np.flatnonzero(reports[1.0].success <= 1e-12)
print(f"\npure greedy leaves {trapped.size} starts with zero success, e.g. config "
      f"{trapped[0]} = {index_config(int(trapped[0]), 8).tolist()}")
print(f"at index 0.99 the worst start still succeeds with p = {reports[0.99].min:.4f}")

# one sampled trajectory from a trapped start, greedy vs hybrid
start = int(trapped[0])
for index in (1.0, 0.95):
    params = SolverParams(p_chem=index, max_steps=400, patience=0)
    trace = solve_type2(p8, params, np.random.default_rng(5), init=index_config(start, 8))
    path = [trace.init_config] + trace.configs
    hit = bool(set(path) & set(minima))
    print(f"trajectory from config {start} at index {index}: visited "
          f"{len(set(path))} distinct configs, reached a minimum: {hit}")

# cross-check the matrix against brute Monte-Carlo at one start
mc = empirical_success(p8, 0.95, start, horizon, 20_000, np.random.default_rng(9))
print(f"\nMonte-Carlo check at index 0.95 from config {start}: "
      f"{mc:.4f} vs matrix {reports[0.95].success[start]:.4f}")
