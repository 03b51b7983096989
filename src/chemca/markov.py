"""Exact Markov-chain analysis of the Type-2 solver dynamics.

The solver's proposal law (uniform single-spin flip, pairwise consistency
signs iid with probability p_chem, accept when the observed change is
<= 0) defines a discrete-time chain over all 2^N spin configurations.
Acceptance probabilities are computed exactly by enumerating the sign
patterns into a plain (2^N, N) array; success is absorption on the
global minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hybrid import observed_change
from .qubo import (
    CapacityError,
    QuboProblem,
    bits_to_spins,
    config_bits,
    flip_terms,
    index_config,
    qubo_to_ising,
)

_BYTE_BUDGET = 1 << 28  # one (configs, max(N, 2^k)) float enumeration
_DEAD_ROWS = 64  # steps of flip indices per draw of empirical_success once no chain is live


def _check_budget(rows: int, n: int, k: int):
    if 8 * rows * max(n, 1 << k) > _BYTE_BUDGET:
        raise CapacityError(f"{rows} configs with {k} pairwise terms exceed {_BYTE_BUDGET} bytes")


def acceptance_prob(p: QuboProblem, x, h: int, p_chem: float):
    """Exact probability that the Type-2 check accepts flipping variable h.

    P[ lin + sum_i sigma_i d_i <= 0 ] where the d_i are the true pairwise
    terms of the flip, sigma_i = +1 with probability p_chem else -1, and
    the linear self-term enters unflipped. Enumerates all sign patterns
    over the nonzero terms, for one config x (n,) or one per row (R, n).
    """
    if not 0.0 <= p_chem <= 1.0:
        raise ValueError("p_chem must be in [0, 1]")
    x = np.asarray(x, dtype=np.uint8)
    ising = qubo_to_ising(p)
    partners = np.flatnonzero(ising.coupling[h])
    _check_budget(len(np.atleast_2d(x)), p.n, 0 if p_chem == 1.0 else partners.size)
    lin, pair = flip_terms(ising, bits_to_spins(x).astype(float), h)
    d = pair[..., partners]
    if p_chem == 1.0:
        return (observed_change(lin, d, 1.0) <= 0.0).astype(float)
    sums = np.zeros(np.shape(lin) + (1,))
    probs = np.ones(1)
    for di in d.T[..., None]:
        sums = np.concatenate([sums + di, sums - di], axis=-1)
        probs = np.concatenate([probs * p_chem, probs * (1.0 - p_chem)])
    return np.where(lin[..., None] + sums <= 0.0, probs, 0.0).sum(axis=-1)


def check_capacity(p: QuboProblem, p_chem: float):
    """Raise CapacityError if the acceptance table of p at p_chem exceeds the byte budget."""
    k = 0 if p_chem == 1.0 else int(np.count_nonzero(p.pairwise(), axis=1).max(initial=0))
    _check_budget(1 << p.n, p.n, k)


def _neighbours(n: int) -> np.ndarray:
    """(2^n, n) table: entry (c, h) is c with bit h flipped."""
    return np.arange(1 << n)[:, None] ^ (1 << np.arange(n))


def build_transition_matrix(p: QuboProblem, p_chem: float) -> np.ndarray:
    """(2^n, n) acceptance table of the Type-2 chain: accept[c, h] / n is the
    probability of c -> c xor 2^h, and the rejected mass stays at c. One
    acceptance_prob call over all configs per flipped spin. Raises
    CapacityError before allocating."""
    check_capacity(p, p_chem)
    configs = config_bits(p.n, 0, 1 << p.n)
    accept = np.empty((1 << p.n, p.n))
    for h in range(p.n):
        accept[:, h] = acceptance_prob(p, configs, h, p_chem)
    return accept


@dataclass
class SuccessReport:
    """Per-initial-config probability of reaching a global minimum."""

    success: np.ndarray
    minima: list[int]
    horizon: int

    @property
    def min(self) -> float:
        return float(self.success.min())

    @property
    def max(self) -> float:
        return float(self.success.max())

    @property
    def mean(self) -> float:
        return float(self.success.mean())

    def spread(self) -> float:
        """max - min of success over the non-minimum configs; 0.0 when there
        is none (every config is a minimum)."""
        vals = np.delete(self.success, self.minima)
        return float(vals.max() - vals.min()) if vals.size else 0.0

    def histogram(self, bins: int = 20):
        return np.histogram(self.success, bins=bins, range=(0.0, 1.0))


def success_probabilities(
    accept: np.ndarray, minima, horizon: int | None = None
) -> SuccessReport:
    """Absorption mass on the minima within `horizon` proposals, for the
    (2^n, n) acceptance table of build_transition_matrix.

    Minima are absorbing; success of config c is the probability that a
    chain started at c visits a minimum within the horizon, iterated
    backwards one proposal at a time. Default horizon is 100 * n proposals.
    The iteration stops early once a step returns its input bit for bit,
    since every later step would return it too; the result is the one of
    all `horizon` steps, and the report records the requested horizon.
    """
    n = accept.shape[1]
    minima = sorted(int(m) for m in minima)
    if not minima:
        raise ValueError("minima set must be nonempty")
    if horizon is None:
        horizon = 100 * n
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    move = accept / n
    stay = 1.0 - move.sum(axis=1)
    neighbours = _neighbours(n)
    success = np.zeros(1 << n)
    success[minima] = 1.0
    for _ in range(horizon):
        new = stay * success + (move * success[neighbours]).sum(axis=1)
        new[minima] = 1.0
        if new.tobytes() == success.tobytes():
            break  # a fixed point, bit for bit (-0.0 is not 0.0): later steps repeat it
        success = new
    return SuccessReport(success, minima, horizon)


def _doomed(accept, is_min) -> np.ndarray:
    """(2^n,) bool: True where no config of is_min can be reached through the
    flips marked in accept, the (2^n, n) bool p_chem = 1 acceptance table of
    build_transition_matrix; a backward fixed point from is_min."""
    neighbours = _neighbours(accept.shape[1])
    reach = is_min.copy()
    while True:
        new = reach | (accept & reach[neighbours]).any(axis=1)
        if np.array_equal(new, reach):
            return ~reach
        reach = new


def empirical_success(
    p: QuboProblem,
    p_chem: float,
    init_index: int,
    horizon: int,
    runs: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the success probability for one start.

    Runs `runs` independent chains of the solver's flip law for `horizon`
    proposals; a chain succeeds when it visits any global-minimum config.
    At p_chem = 1 a step reads the exact chain's acceptance table
    (build_transition_matrix(p, 1.0)); below 1 it runs flip_terms and
    hybrid.observed_change, batched over chains, as an independent reference.

    A chain is settled once its config is in one table: a global minimum,
    or, at p_chem = 1, a doomed config (_doomed: no minimum can be reached
    from it through flips the table accepts; at p_chem = 1 the flip index
    is the only draw). Only the unsettled chains are advanced.
    The draws are those of a loop that advances every chain: each step
    draws one flip index per chain and, for p_chem < 1, one uniform per
    chain and spin, until the horizon or until every chain has hit a
    minimum. So the estimate and the state of `rng` do not depend on which
    chains were skipped. Once no chain is live short of that, the flip
    indices of the remaining steps are drawn _DEAD_ROWS steps a call: one
    (rows, runs) draw yields the values and end state of `rows` draws of
    `runs`. Bad arguments raise ValueError, and at p_chem = 1
    a problem whose acceptance table exceeds the byte budget raises
    CapacityError, all before anything is drawn.
    """
    from .qubo import brute_force_min

    if not 0.0 <= p_chem <= 1.0:
        raise ValueError(f"p_chem must be in [0, 1], got {p_chem}")
    if not 0 <= init_index < 1 << p.n:
        raise ValueError(f"init_index must be in [0, {1 << p.n}), got {init_index}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    greedy = p_chem == 1.0
    table = build_transition_matrix(p, 1.0) == 1.0 if greedy else None
    is_min = np.zeros(1 << p.n, dtype=bool)
    is_min[brute_force_min(p)[1]] = True
    ising = qubo_to_ising(p)
    settled = is_min | _doomed(table, is_min) if greedy else is_min

    s = np.tile(bits_to_spins(index_config(init_index, p.n)).astype(float), (runs, 1))
    idx = np.full(runs, init_index, dtype=np.int64)
    live = np.arange(runs)  # the rows of each step's draws that belong to the chains in s and idx
    hits = runs * int(is_min[init_index])
    keep = ~settled[idx]
    s, idx, live = s[keep], idx[keep], live[keep]
    for t in range(horizon):
        if hits == runs:
            break
        if not live.size:
            # every chain left is doomed (greedy only: below 1 a chain
            # leaves `live` only at a minimum), so only flip indices are
            # left to draw: the rest of the horizon's, _DEAD_ROWS steps a call
            for start in range(t, horizon, _DEAD_ROWS):
                rng.integers(p.n, size=(min(_DEAD_ROWS, horizon - start), runs))
            break
        h = rng.integers(p.n, size=runs)[live]
        u = None if greedy else rng.random((runs, p.n))
        if greedy:
            accept = table[idx, h]
        else:
            lin, pair = flip_terms(ising, s, h)
            accept = observed_change(lin, pair, p_chem, u[live]) <= 0.0
        flip_rows, flip_cols = np.flatnonzero(accept), h[accept]
        s[flip_rows, flip_cols] = -s[flip_rows, flip_cols]
        idx[accept] ^= np.int64(1) << flip_cols
        hits += int(np.count_nonzero(is_min[idx]))
        keep = ~settled[idx]
        if not keep.all():
            s, idx, live = s[keep], idx[keep], live[keep]
    return hits / runs
