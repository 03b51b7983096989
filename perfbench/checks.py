"""Output checks, each independent of the code path the benchmark times.

Every check reads the outputs from disk and raises CheckFailed with a
reason when they are wrong. The references here (elementary CA, tour
enumeration, partition enumeration) are plain-Python reimplementations
that share no code with the program.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from pathlib import Path


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---- independent references -------------------------------------------

def eca_next(rule: int, row: list[int]) -> list[int]:
    """One elementary-CA step on a chain whose ends see 0 beyond them."""
    padded = [0] + row + [0]
    return [
        (rule >> (padded[i - 1] * 4 + padded[i] * 2 + padded[i + 1])) & 1
        for i in range(1, len(padded) - 1)
    ]


def tsp_min_energy(coords) -> float:
    """Shortest closed tour, scaled so the longest edge is 0.1: the energy
    of the best one-hot tour in the TSP Hamiltonian."""
    n = len(coords)
    d = [[math.dist(a, b) for b in coords] for a in coords]
    scale = 0.1 / max(max(row) for row in d)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        best = min(best, sum(d[tour[i]][tour[(i + 1) % n]] for i in range(n)))
    return scale * best


def partition_minima(numbers) -> tuple[float, list[int]]:
    """Minimum of (sum n_i s_i)^2 and every config index reaching it."""
    best, arg = math.inf, []
    for idx in range(1 << len(numbers)):
        e = sum(v if (idx >> i) & 1 else -v for i, v in enumerate(numbers)) ** 2
        if e < best:
            best, arg = e, [idx]
        elif e == best:
            arg.append(idx)
    return float(best), arg


# ---- digests ------------------------------------------------------------

def output_digest(out: Path) -> str:
    """SHA-256 over every output file, by relative name, with each
    manifest's start and finish timestamps left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("started", None)
            manifest.pop("finished", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# ---- chemit-population --------------------------------------------------

def check_population(out: Path, cfg: dict) -> list[str]:
    """One result per replica: CSV length, initial count, and the summary's
    mean_final against the CSVs' last rows."""
    results, finals = [], []
    summary = json.loads((out / "population_summary.json").read_text())
    for k in range(cfg["replicas"]):
        try:
            with open(out / f"population_{k:03d}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            require(len(rows) == cfg["steps"] + 1, f"replica {k}: {len(rows)} rows, want {cfg['steps'] + 1}")
            require(int(rows[0]["chemits"]) == cfg["initial_chemits"], f"replica {k}: wrong initial chemit count")
            cells = cfg["side"] ** 2
            require(
                all(0 <= int(r["chemits"]) <= cells and 0 <= int(r["high_cs"]) <= cells for r in rows),
                f"replica {k}: counts outside the grid",
            )
            finals.append(int(rows[-1]["chemits"]))
            results.append("")
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            results.append(str(exc) or type(exc).__name__)
    if len(finals) == cfg["replicas"]:
        want = sum(finals) / len(finals)
        if abs(summary["mean_final"] - want) > 1e-9:
            results = [f"mean_final {summary['mean_final']} != last-row mean {want}"] * len(results)
    return results


# ---- cca1d-raster -------------------------------------------------------

def read_raster(path: Path) -> list[list[int]]:
    return [[1 if ch == "#" else 0 for ch in line] for line in path.read_text().splitlines()]


def check_raster_csv(path: Path, raster: list[list[int]]) -> None:
    """The CSV holds one `step,cell,cs` row per cell of the text raster, in
    order, as csv.writer writes integers (either line ending)."""
    rows = path.read_text().replace("\r\n", "\n").splitlines()
    want = ["step,cell,cs"] + [f"{t},{i},{v}" for t, row in enumerate(raster) for i, v in enumerate(row)]
    if rows == want:
        return
    for n, (got, ref) in enumerate(zip(rows, want), start=1):
        require(got == ref, f"raster CSV line {n} disagrees with the text raster")
    raise CheckFailed(f"raster CSV has {len(rows)} lines, want {len(want)}")


def check_display(out: Path, cfg: dict) -> None:
    rule_a = int(cfg["rule"].split("-")[0])
    raster = read_raster(out / "raster.txt")
    require(len(raster) == cfg["steps"] + 1, "display raster length")
    require(raster[0] == cfg["init"], "display raster row 0 is not the initial row")
    row = cfg["init"]
    for t in range(1, len(raster)):
        row = eca_next(rule_a, row)
        require(raster[t] == row, f"display raster row {t} differs from the rule-{rule_a} reference")
    check_raster_csv(out / "raster.csv", raster)


def check_probabilistic(out: Path, cfg: dict) -> float:
    """Rows that the 1D law fixes must hold: a commanded cell is high; a
    cell with no commanded neighbour, or no active interface, is low.
    Returns the high fraction of the raster."""
    label_a, label_i = cfg["rule"].split("-")
    rule_a, rule_b = int(label_a), int(label_i) - 1
    raster = read_raster(out / "raster.txt")
    require(len(raster) == cfg["steps"] + 1, "probabilistic raster length")
    require(raster[0] == cfg["init"], "probabilistic raster row 0 is not the initial row")
    n = len(raster[0])
    for t in range(1, len(raster)):
        prev, cur = raster[t - 1], raster[t]
        stir = eca_next(rule_a, prev)
        iface = [(rule_b >> (2 * prev[j] + prev[j + 1])) & 1 for j in range(n - 1)]
        for i in range(n):
            s_l = stir[i - 1] if i > 0 else 0
            s_r = stir[i + 1] if i < n - 1 else 0
            i_l = iface[i - 1] if i > 0 else 0
            i_r = iface[i] if i < n - 1 else 0
            if stir[i]:
                require(cur[i] == 1, f"row {t} cell {i}: commanded cell is low")
            elif not (s_l or s_r) or not (i_l or i_r):
                require(cur[i] == 0, f"row {t} cell {i}: uncoupled cell is high")
    check_raster_csv(out / "raster.csv", raster)
    return sum(map(sum, raster)) / (len(raster) * n)


# ---- ising-solve --------------------------------------------------------

def check_solve_run(path: Path, summary: dict, problem, energy, emin_ref: float, rng: random.Random) -> None:
    """best_energy is never below the reference minimum, and sampled trace
    energies recompute through the program's energy function."""
    require(summary["best_energy"] >= emin_ref - 1e-9, f"{path.name}: best energy below the oracle minimum")
    if summary["success"]:
        require(summary["best_energy"] <= emin_ref + 1e-9, f"{path.name}: success without reaching the minimum")
    lines = path.read_text().splitlines()
    require(len(lines) == summary["steps"], f"{path.name}: {len(lines)} trace lines, want {summary['steps']}")
    if not lines:
        return
    picks = {0, len(lines) - 1} | {rng.randrange(len(lines)) for _ in range(3)}
    for t in sorted(picks):
        rec = json.loads(lines[t])
        bits = [(rec["config"] >> i) & 1 for i in range(problem.n)]
        require(abs(energy(problem, bits) - rec["energy"]) <= 1e-9, f"{path.name}: step {t} energy does not recompute")
    last = json.loads(lines[-1])
    require(last["best_energy"] == summary["best_energy"], f"{path.name}: last best_energy disagrees with the run")


# ---- markov-exact -------------------------------------------------------

def check_success_csv(path: Path, n: int, minima: list[int]) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 1 << n, f"{path.name}: {len(rows)} rows, want {1 << n}")
    values = [float(r["success"]) for r in rows]
    require(all(-1e-9 <= v <= 1 + 1e-9 for v in values), f"{path.name}: success outside [0, 1]")
    require(all(abs(values[m] - 1.0) <= 1e-9 for m in minima), f"{path.name}: success below 1 on a minimum")
    return values


MC_SIGMAS = 5.0
MC_ALPHA = math.erfc(MC_SIGMAS / math.sqrt(2))  # two-sided tail of 5 sigma, 5.7e-7


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, i) * p ** i * (1.0 - p) ** (n - i) for i in range(n + 1)]
    return sum(pmf[: k + 1]), sum(pmf[k:])


def check_monte_carlo(exact: float, empirical: float, runs: int) -> None:
    """Monte-Carlo estimate against the exact success probability, by an
    exact two-sided binomial test at the tail probability of MC_SIGMAS
    normal standard errors. Unlike a normal-approximation bound it holds
    near 0 and 1, where one chain moves the estimate by 1/runs."""
    hits = round(empirical * runs)
    p = min(max(exact, 0.0), 1.0)
    low, high = binomial_tails(hits, runs, p)
    require(
        min(low, high) > MC_ALPHA / 2,
        f"Monte Carlo {hits}/{runs} vs exact {exact:.6f}: binomial tail {min(low, high):.3g} "
        f"beyond {MC_SIGMAS:g} sigma",
    )
