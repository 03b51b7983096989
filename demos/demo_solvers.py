"""Hybrid solvers on the worked optimization problems.

Builds the partition / 2-SAT / TSP Hamiltonians, checks them against the
exhaustive oracle, then runs both hybrid schemes: Type 1 samples chemical
readouts and accepts by Metropolis; Type 2 checks every pairwise energy
term against the ideal lookup outcome with tunable consistency p_chem.
"""

import numpy as np

from chemca.chemodel import SingleCellHysteresisParams
from chemca.hybrid import SolverParams, solve_type1, solve_type2
from chemca.qubo import (
    brute_force_min,
    build_2sat,
    build_partition,
    build_tsp,
    distance_matrix_from_coords,
    index_config,
    tour_from_config,
)

problems = {
    "partition {1,3,4,8}": build_partition([1, 3, 4, 8]),
    "partition {1,3,4,6,5,1}": build_partition([1, 3, 4, 6, 5, 1]),
    "2-SAT (4 vars, 3 clauses)": build_2sat([(1, 2), (2, -4), (3, 4)]),
    "2-SAT (4 vars, 6 clauses)": build_2sat([(1, 2), (2, -4), (3, 4), (1, -3), (1, -2), (-3, 4)]),
    "TSP 4 cities": build_tsp(distance_matrix_from_coords([[0, 0], [1, 0], [3, 3], [0, 10]])),
}

for name, p in problems.items():
    emin, minima = brute_force_min(p)
    print(f"{name}: n={p.n}, oracle minimum {emin:.4g} at {len(minima)} configs")

    t1 = solve_type1(
        p,
        SolverParams(target_energy=emin + 1e-9, max_steps=20_000,
                     hysteresis=SingleCellHysteresisParams(1.0)),
        np.random.default_rng(1),
    )
    t2 = solve_type2(
        p,
        SolverParams(p_chem=0.95, target_energy=emin + 1e-9, max_steps=20_000),
        np.random.default_rng(2),
    )
    print(f"  type 1 (metropolis readout): E={t1.best_energy:.4g} in {t1.n_steps} steps")
    print(f"  type 2 (p_chem=0.95):        E={t2.best_energy:.4g} in {t2.n_steps} steps")

    best = index_config(t2.best_config, p.n)
    if p.metadata["kind"] == "partition":
        nums = p.metadata["numbers"]
        a = [int(n) for n, b in zip(nums, best) if b]
        b = [int(n) for n, bb in zip(nums, best) if not bb]
        print(f"  split: {a} vs {b}")
    elif p.metadata["kind"] == "2sat":
        print(f"  assignment: {best.tolist()}")
    else:
        tour = tour_from_config(best, 4)
        print(f"  tour (position -> city): {[c + 1 for c in tour]}")
    print()

# the noisy-readout regime: imperfect chemistry still finds the minimum,
# exploiting retention to hop out of local structure
p4 = problems["partition {1,3,4,8}"]
noisy = solve_type1(
    p4,
    SolverParams(target_energy=0.0, max_steps=20_000,
                 hysteresis=SingleCellHysteresisParams(0.85)),
    np.random.default_rng(3),
)
print(f"type 1 with p_read=0.85 on the 4-number set: E={noisy.best_energy} in {noisy.n_steps} steps")

# chemical-loop backend: consistency checks come from sampling the pairwise
# cells through the hysteresis model instead of a flat Bernoulli index
from chemca.hybrid import PairwiseChemistry

loop = solve_type2(
    p4,
    SolverParams(target_energy=0.0, max_steps=20_000),
    np.random.default_rng(4),
    chemistry=PairwiseChemistry(p4.n, SingleCellHysteresisParams(0.95)),
)
print(f"type 2 with the chemical-loop backend:          E={loop.best_energy} in {loop.n_steps} steps")
