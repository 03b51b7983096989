"""Chemit life cycle: scripted micro-events, then free-running dynamics.

The four micro-event scenarios plant a chemical high state by hand and run
one digital update to show propagation, replication, competition and
random selection. The free-running section couples the automaton to the
chemical model and tracks the population to its steady state.
"""

import numpy as np

from chemca.cca2d import (
    PwmGrid,
    cca2d_update,
    format_pwm_grid,
    run_population_experiment,
    step_chemits,
    place_chemits,
)
from chemca.chemodel import PwmClass
from chemca.harness import stream_rng


def chemit(pwm, r, c):
    pwm.classes[r, c] = PwmClass.CORE
    for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        pwm.classes[(r + dr) % 5, (c + dc) % 5] = PwmClass.HALO


def show(title, pwm, cs, new):
    print(f"--- {title}")
    left = format_pwm_grid(pwm).splitlines()
    mid = ["".join("#" if v else "." for v in row) for row in cs]
    right = format_pwm_grid(new).splitlines()
    print("  pwm in   cs in   pwm out")
    for a, b, c in zip(left, mid, right):
        print(f"  {a}    {b}   {c}")
    print()


rng = np.random.default_rng(3)

pwm = PwmGrid(np.zeros((5, 5), np.int8))
chemit(pwm, 2, 2)
cs = np.zeros((5, 5), np.uint8)
cs[2, 3] = 1
new, _ = cca2d_update(pwm, cs, 0, rng)
show("propagation: high CS at a nearest neighbor", pwm, cs, new)

pwm = PwmGrid(np.zeros((5, 5), np.int8))
chemit(pwm, 2, 2)
cs = np.zeros((5, 5), np.uint8)
cs[3, 3] = 1
new, _ = cca2d_update(pwm, cs, 0, rng)
show("replication: high CS at a next-nearest neighbor", pwm, cs, new)

pwm = PwmGrid(np.zeros((5, 5), np.int8))
pwm.classes[2, 1] = PwmClass.CORE
pwm.classes[2, 2] = PwmClass.CORE
cs = np.zeros((5, 5), np.uint8)
cs[2, 1] = 1
cs[2, 2] = 1
tallies = {0: 0, 1: 0, 2: 0}
for seed in range(10_000):
    new, _ = cca2d_update(pwm, cs, 0, np.random.default_rng(seed))
    tallies[int(np.count_nonzero(new.classes == PwmClass.CORE))] += 1
print("--- competition between two adjacent cores, 10^4 seeds")
print(f"  both survive {tallies[2]/100:.1f}%   both die {tallies[0]/100:.1f}%   one survives {tallies[1]/100:.1f}%")
print("  (expected 25 / 25 / 50)\n")

print("--- free-running 20x20 automaton, 300 steps")
pwm = place_chemits(20, 5, np.random.default_rng(7))
cs = np.zeros((20, 20), np.uint8)
for t in range(300):
    pwm, cs, counts = step_chemits(pwm, cs, rng=np.random.default_rng(1000 + t))
    if t % 60 == 0:
        cores = int(np.count_nonzero(pwm.classes == PwmClass.CORE))
        print(f"  step {t:3d}: {cores:3d} chemits, {int(cs.sum()):3d} high chemical states, "
              f"+{counts.replication} repl -{counts.annihilation} annih")

print("\n--- population convergence from different initial counts (20x20, 5 replicas)")
for init in (1, 5, 40):
    res = run_population_experiment(20, init, 1500, [stream_rng(11, k) for k in range(5)])
    print(f"  initial {init:3d}: late mean {res.late_mean(500):5.1f}")
print("  (steady state set by the available space, not the start)")
