"""Hybrid chemical-digital solvers for QUBO/Ising problems.

Type 1 treats the chemical states as the spins: each step flips one cell's
commanded PWM bit, reads every cell back through the hysteresis model, and
accepts with the Metropolis probability min(exp(-dE/k), 1) on the readout
energy. It needs two energies per proposal, the commanded configuration's
(for the true change) and the readout's. Both solvers read energies by
config index: up to qubo._TABLE_VARS variables from the problem's energy
table, above that from qubo.energy, at most once per configuration and
run; a run's start energy comes from qubo.energy. Type 2 treats the
commanded PWM bits as the spins and checks each pairwise interaction
against the ideal lookup outcome: a check agrees with probability p_chem
(the deterministic index), a disagreeing check flips the sign of that
pair's energy contribution, and the move is accepted when the observed
total is <= 0.

Draws: a proposal makes one draw, u = rng.random(n + 2). The flipped spin
is h = int(u[0] * n); Type 1 reads its n readouts from u[1:n+1] and its
acceptance uniform from u[n+1]; Type 2 reads the checks of h's k partners
from u[1:k+1] (PairwiseChemistry draws its own from the generator). This
contract dates from output version 1 of the `solve` kind
(harness.OUTPUT_VERSION); version 2 reads the snapped coefficients of
qubo.QuboProblem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .chemodel import SingleCellHysteresisParams, table_single
from .qubo import (
    QuboProblem,
    bits_to_spins,
    config_index,
    energy,
    flip_terms,
    qubo_to_ising,
)


@dataclass
class SolverParams:
    """Knobs shared by both solvers.

    p_chem is the deterministic index of the pairwise consistency check
    (1.0 reduces Type 2 to greedy descent, 0.5 to a random walk). k_temp is
    the Type-1 acceptance temperature. patience=None stops a run after
    50*n proposals without an accepted move when no target energy is set;
    patience=0 disables that stop.
    """

    p_chem: float = 1.0
    k_temp: float = 5.0
    max_steps: int = 10_000
    target_energy: float | None = None
    patience: int | None = None
    hysteresis: SingleCellHysteresisParams = field(default_factory=SingleCellHysteresisParams)

    def __post_init__(self):
        if not 0.0 <= self.p_chem <= 1.0:
            raise ValueError("p_chem must be in [0, 1]")
        if not self.k_temp > 0:
            raise ValueError(f"k_temp must be > 0, got {self.k_temp}")
        if self.target_energy is not None and not math.isfinite(self.target_energy):
            raise ValueError(f"target_energy must be finite, got {self.target_energy}")

    def resolved_patience(self, n: int) -> int | None:
        if self.patience is not None:
            return self.patience if self.patience > 0 else None
        return None if self.target_energy is not None else 50 * n


_JSON_BOOL = ("false", "true")


def _json_floats(values):
    """JSON text of each float: its repr when all are finite, else json.dumps
    (Infinity, -Infinity, NaN)."""
    return map(float.__repr__ if all(map(math.isfinite, values)) else json.dumps, values)


@dataclass
class SolveTrace:
    """Per-proposal record of a solver run.

    configs[t] is the binary encoding of the configuration whose energy is
    energies[t] (the chemical readout for Type 1, the commanded spins for
    Type 2), so every recorded energy is recomputable via qubo.energy.
    """

    n: int
    init_config: int
    flips: list[int] = field(default_factory=list)
    observed_de: list[float] = field(default_factory=list)
    true_de: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    configs: list[int] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    best_energies: list[float] = field(default_factory=list)
    best_energy: float = math.inf
    best_config: int = -1
    success: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.flips)

    def record(self, h, obs, true, acc, cfg, e):
        self.flips.append(int(h))
        self.observed_de.append(float(obs))
        self.true_de.append(float(true))
        self.accepted.append(bool(acc))
        self.configs.append(int(cfg))
        self.energies.append(float(e))
        if e < self.best_energy:
            self.best_energy = float(e)
            self.best_config = int(cfg)
        self.best_energies.append(self.best_energy)

    def final_config(self) -> int:
        return self.configs[-1] if self.configs else self.init_config

    def write_jsonl(self, path):
        """One JSON object per proposal step, byte for byte as
        json.dumps(row, sort_keys=True) writes it."""
        rows = zip(
            self.accepted,
            _json_floats(self.best_energies),
            self.configs,
            _json_floats(self.energies),
            self.flips,
            _json_floats(self.observed_de),
            _json_floats(self.true_de),
        )
        with open(path, "w") as fh:
            fh.writelines(
                f'{{"accepted": {_JSON_BOOL[acc]}, "best_energy": {best}, "config": {cfg}, '
                f'"energy": {e}, "flip": {h}, "observed_de": {obs}, "step": {t}, "true_de": {true}}}\n'
                for t, (acc, best, cfg, e, h, obs, true) in enumerate(rows)
            )

    def summary(self) -> dict:
        return {
            "n": self.n,
            "init_config": self.init_config,
            "steps": self.n_steps,
            "final_config": self.final_config(),
            "final_energy": self.energies[-1] if self.energies else None,
            "best_config": self.best_config,
            "best_energy": self.best_energy,
            "success": self.success,
        }


def _init_bits(p: QuboProblem, init, rng: np.random.Generator) -> np.ndarray:
    if init is None:
        return rng.integers(0, 2, p.n).astype(np.uint8)
    x = np.asarray(init, dtype=np.uint8).copy()
    if x.shape != (p.n,):
        raise ValueError("initial config length mismatch")
    return x


def _run(p: QuboProblem, params: SolverParams, rng: np.random.Generator, start: int, e, propose) -> SolveTrace:
    """The run loop of both solvers, from the config of index `start` and
    energy `e`.

    Each step makes the proposal's one draw, u = rng.random(n + 2), takes
    the spin h = int(u[0] * n) (< n for every u[0] < 1) and calls
    `propose(h, u)`, which reads the rest of its uniforms from u and
    returns the observed change, the true change, whether the move was
    accepted, and the index and energy of the config to record after it.
    The run stops at the target energy (a success, also before the first
    step), after `patience` proposals in a row without an accepted move,
    or after max_steps.
    """
    n = p.n
    trace = SolveTrace(n, start, best_energy=e, best_config=start)
    # QuboProblem bounds every energy, so no run reaches a target of -inf
    target = -math.inf if params.target_energy is None else params.target_energy + 1e-12
    patience = params.resolved_patience(n) or math.inf
    since_accept = 0
    for _ in range(params.max_steps):
        if trace.best_energy <= target or since_accept >= patience:
            break
        u = rng.random(n + 2)
        h = int(u[0] * n)
        obs_de, true_de, accept, idx, e = propose(h, u)
        since_accept = 0 if accept else since_accept + 1
        trace.record(h, obs_de, true_de, accept, idx, e)
    trace.success = trace.best_energy <= target
    return trace


def _scorer(p: QuboProblem, start: int, x):
    """(score, e_start): e_start is the energy of the run's start config x,
    of index `start`, from energy(); score(idx, y) gives the energy of
    config y, of index idx.

    Up to qubo._TABLE_VARS variables score reads the problem's table,
    built on the first read and kept with the problem. Above, it calls
    energy() and keeps each energy per run by index, the start's included,
    so a config met again is not scored again.
    """
    e_start = energy(p, x)
    table = p.table
    if table is not None:
        return (lambda idx, y: table.item(idx)), e_start  # a Python float, as energy() returns
    scored = {start: e_start}

    def score(idx, y):
        e = scored.get(idx)
        if e is None:
            e = scored[idx] = energy(p, y)
        return e

    return score, e_start


def solve_type1(
    p: QuboProblem,
    params: SolverParams | None = None,
    rng: np.random.Generator | None = None,
    init=None,
) -> SolveTrace:
    """Chemical-states-as-spins solver with Metropolis acceptance.

    Each step flips one uniformly random cell's commanded bit, samples every
    cell's chemical readout (a high command excites with p_read, a dropped
    command retains a high state with 1 - p_read), computes the readout
    energy and accepts with min(exp(-dE/k_temp), 1); a rejected flip reverts
    the command and keeps the previous readout. With p_read = 1 this is
    exactly Metropolis on the commanded configuration.

    Both energies of a step are read by config index (_scorer): from the
    problem's energy table, or above its size cap from energy(), at most
    once per configuration and run. The start's readout is scored by
    energy().
    """
    params = params or SolverParams()
    rng = rng or np.random.default_rng()
    cmd = _init_bits(p, init, rng)
    law = table_single(params.hysteresis)
    read = (rng.random(p.n) < law[cmd, 0]).astype(np.uint8)
    read_idx, cmd_idx = config_index(read), config_index(cmd)
    score, e_read = _scorer(p, read_idx, read)
    e_cmd = score(cmd_idx, cmd)  # always the energy of cmd as it stands

    def propose(h, u):  # u[1:n+1]: the readouts, u[n+1]: the acceptance
        nonlocal read, read_idx, e_read, cmd_idx, e_cmd
        cmd[h] ^= 1
        cmd_idx ^= 1 << h
        e_cmd_new = score(cmd_idx, cmd)
        true_de = e_cmd_new - e_cmd
        new_read = (u[1:-1] < law[cmd, read]).view(np.uint8)
        new_idx = config_index(new_read)
        e_new = score(new_idx, new_read)
        obs_de = e_new - e_read
        accept = obs_de <= 0.0 or u[-1] < math.exp(-obs_de / params.k_temp)
        if accept:
            read, read_idx, e_read, e_cmd = new_read, new_idx, e_new, e_cmd_new
        else:
            cmd[h] ^= 1
            cmd_idx ^= 1 << h
        return obs_de, true_de, accept, read_idx, e_read

    return _run(p, params, rng, read_idx, e_read, propose)


def observed_change(lin, terms: np.ndarray, p_chem: float, u=None, signs=None):
    """The Type-2 flip law: the energy change as the consistency checks see it.

    Each pairwise term (last axis of `terms`, from qubo.flip_terms) keeps
    its sign when its check agrees, that is when its uniform in `u` (one
    per term) is below p_chem, and is negated otherwise; the linear term is
    never negated. Explicit +-1 `signs` replace the uniforms. At p_chem = 1
    no uniform is read and the result is the true change. The flip is
    accepted when the result is <= 0.
    """
    if signs is not None:
        if np.shape(signs) != terms.shape:
            raise ValueError(f"expected {terms.shape} consistency signs, got {np.shape(signs)}")
        return lin + (signs * terms).sum(axis=-1)
    if p_chem >= 1.0:
        return lin + terms.sum(axis=-1)
    return lin + np.where(u < p_chem, terms, -terms).sum(axis=-1)


class PairwiseChemistry:
    """Chemical-loop consistency backend (demonstration alternative to the
    Bernoulli surrogate).

    Each pairwise check commands the two cells' PWM bits, samples both
    chemical readouts through the single-cell hysteresis model (cells keep
    their previous chemical state between checks), and reports consistency
    when both readouts match the ideal lookup outcome, i.e. the commands
    themselves. Hysteresis makes the effective index drift with history.
    """

    def __init__(self, n: int, hysteresis: SingleCellHysteresisParams | None = None):
        self.hysteresis = hysteresis or SingleCellHysteresisParams()
        self.law = table_single(self.hysteresis)
        self.cs = np.zeros(n, np.uint8)

    def check(self, i: int, j: int, cmd_i: int, cmd_j: int, rng: np.random.Generator) -> int:
        ok = 1
        for cell, cmd in ((i, cmd_i), (j, cmd_j)):
            out = 1 if rng.random() < self.law[cmd, self.cs[cell]] else 0
            self.cs[cell] = out
            if out != cmd:
                ok = 0
        return ok


def solve_type2(
    p: QuboProblem,
    params: SolverParams | None = None,
    rng: np.random.Generator | None = None,
    init=None,
    chemistry: PairwiseChemistry | None = None,
) -> SolveTrace:
    """PWM-states-as-spins solver with pairwise chemical consistency checks.

    Each step flips one uniformly random spin and evaluates the energy
    change pair by pair; every pairwise term keeps its sign when its
    consistency check agrees (probability p_chem) and is negated otherwise.
    The flip is accepted when the observed total is <= 0 (observed_change);
    the true configuration changes only on acceptance and true energies are
    recorded. At p_chem = 1 no checks are drawn and the run is random
    single-flip greedy descent. Passing a PairwiseChemistry instance
    replaces the Bernoulli checks with the chemical-loop backend.
    """
    params = params or SolverParams()
    rng = rng or np.random.default_rng()
    x = _init_bits(p, init, rng)
    s = bits_to_spins(x).astype(float)
    ising = qubo_to_ising(p)
    partners = [np.flatnonzero(ising.coupling[h]) for h in range(p.n)]
    start = config_index(x)
    score, e_true = _scorer(p, start, x)

    def propose(h, u):  # u[1:k+1]: the checks of the k partners
        nonlocal e_true
        lin, pair = flip_terms(ising, s, h)
        terms = pair[partners[h]]
        true_de = lin + terms.sum()
        signs = None
        if chemistry is not None:
            bits = [chemistry.check(h, int(j), int(x[h] ^ 1), int(x[j]), rng) for j in partners[h]]
            signs = 2.0 * np.array(bits, dtype=float) - 1.0
        obs_de = observed_change(lin, terms, params.p_chem, u[1 : terms.size + 1], signs)
        accept = obs_de <= 0.0
        if accept:
            x[h] ^= 1
            s[h] = -s[h]
        idx = config_index(x)
        if accept:
            e_true = score(idx, x)
        return obs_de, true_de, accept, idx, e_true

    return _run(p, params, rng, start, e_true, propose)
