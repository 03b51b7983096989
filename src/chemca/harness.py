"""Named, reproducible experiments: config validation, seeding, outputs.

A run takes a JSON config (kind plus kind-specific keys), derives one RNG
stream per replica from the master seed, writes CSV/JSON/text outputs into
the output directory and finishes with a manifest. Re-running a manifest
reproduces every output byte-for-byte; only the manifest's timestamps
differ.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cca1d import MODE_DISPLAY, MODE_PROBABILISTIC, Rule1D, run_1d, raster_to_text, write_raster_csv, single_seed
from .cca2d import run_population_experiment, write_population_csv
from .chemodel import ChemModel2DParams
from .lattice import (
    chemical_state_count,
    expansion_ratio,
    format_scientific,
    input_state_count,
    line,
)
from .markov import build_transition_matrix, success_probabilities
from .qubo import brute_force_min, config_index, load_problem, write_solution_json
from .signals import ClockedCellBank, ColorState, decode_trace, synthesize_trace, write_trace_csv
from .hybrid import SolverParams, solve_type1, solve_type2

KINDS = ("count", "cca1d", "cca2d", "solve", "markov", "clock-demo")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def derive_seed(master: int, stream_id: int) -> int:
    """Stable 64-bit stream derivation: the SplitMix64 finalizer applied to
    master + (stream_id + 1) * golden-gamma (mod 2^64). Documented so that
    results are portable across implementations."""
    x = (master + (stream_id + 1) * _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def stream_rng(master: int, stream_id: int) -> np.random.Generator:
    """Replica k of an experiment always uses derive_seed(master, k)."""
    return np.random.default_rng(derive_seed(master, stream_id))


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    master_seed: int = 0
    replicas: int = 1
    out_dir: Path = Path("out")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed: expected a nonnegative integer")
        replicas = raw.get("replicas", 1)
        if not isinstance(replicas, int) or replicas < 1:
            raise ConfigError("replicas: expected a positive integer")
        params = {k: v for k, v in raw.items() if k not in ("kind", "seed", "replicas", "out")}
        cfg = cls(kind, params, seed, replicas, Path(raw.get("out", "out")))
        _VALIDATORS[kind](cfg.params)
        return cfg

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "seed": self.master_seed, "replicas": self.replicas}
        d.update(self.params)
        return d


def _field(params: dict, key: str, prefix: str, types, lo=None, hi=None, required=False):
    """Check one key's type (a bool is no number) and inclusive bounds;
    return its value, or None when the key is absent."""
    name = f"{prefix}.{key}"
    if key not in params:
        if required:
            raise ConfigError(f"{name}: required")
        return None
    value = params[key]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigError(f"{name}: wrong type {type(value).__name__}")
    if lo is not None and not value >= lo:
        raise ConfigError(f"{name}: must be >= {lo}")
    if hi is not None and not value <= hi:
        raise ConfigError(f"{name}: must be <= {hi}")
    return value


def _validate_count(p: dict):
    for key in ("n", "cell_levels", "iface_levels"):
        _field(p, key, "count", int, lo=1, required=True)
    _field(p, "chem_levels", "count", int, lo=1)


def _validate_cca1d(p: dict):
    try:
        Rule1D.from_label(_field(p, "rule", "cca1d", str, required=True))
    except ValueError as exc:
        raise ConfigError(f"cca1d.rule: {exc}") from None
    cells = _field(p, "cells", "cca1d", int, lo=1, required=True)
    _field(p, "steps", "cca1d", int, lo=0, required=True)
    if p.get("mode", "probabilistic") not in (MODE_PROBABILISTIC, MODE_DISPLAY):
        raise ConfigError("cca1d.mode: expected 'probabilistic' or 'display'")
    _field(p, "periodic", "cca1d", bool)
    if p.get("init") is not None:
        init = _field(p, "init", "cca1d", list)
        if len(init) != cells or any(v not in (0, 1) for v in init):
            raise ConfigError(f"cca1d.init: expected {cells} chemical states, each 0 or 1")


def _validate_cca2d(p: dict):
    side = _field(p, "side", "cca2d", int, lo=1, required=True)
    _field(p, "steps", "cca2d", int, lo=0, required=True)
    _field(p, "initial_chemits", "cca2d", int, lo=0, hi=side * side, required=True)
    _field(p, "fluct_ratio", "cca2d", (int, float), lo=0, hi=1)
    if "model" in p:
        try:
            ChemModel2DParams.from_dict(p["model"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cca2d.model: {exc}") from None


def _validate_problem(p: dict, prefix: str):
    _field(p, "problem", prefix, dict, required=True)
    try:
        load_problem(p["problem"])
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"{prefix}.problem: {exc}") from None


def _validate_solve(p: dict):
    _validate_problem(p, "solve")
    if p.get("solver", 2) not in (1, 2):
        raise ConfigError("solve.solver: expected 1 or 2")
    _field(p, "p_chem", "solve", (int, float), lo=0, hi=1)
    k_temp = _field(p, "k_temp", "solve", (int, float))
    if k_temp is not None and not k_temp > 0:
        raise ConfigError("solve.k_temp: must be > 0")
    _field(p, "max_steps", "solve", int, lo=0)
    if p.get("target_energy") is not None:
        _field(p, "target_energy", "solve", (int, float))


def _validate_markov(p: dict):
    _validate_problem(p, "markov")
    indices = p.get("deterministic_indices", [1.0])
    if not isinstance(indices, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 <= v <= 1.0
        for v in indices
    ):
        raise ConfigError("markov.deterministic_indices: expected probabilities in [0, 1]")
    if p.get("horizon") is not None:
        _field(p, "horizon", "markov", int, lo=0)


def _validate_clock(p: dict):
    _field(p, "cells", "clock-demo", int, lo=1)
    _field(p, "cycles", "clock-demo", int, lo=1)
    _field(p, "period", "clock-demo", int, lo=4)  # synthesize_trace needs 4 frames
    _field(p, "jitter", "clock-demo", int, lo=0)
    _field(p, "confirmations", "clock-demo", int, lo=1)


_VALIDATORS = {
    "count": _validate_count,
    "cca1d": _validate_cca1d,
    "cca2d": _validate_cca2d,
    "solve": _validate_solve,
    "markov": _validate_markov,
    "clock-demo": _validate_clock,
}


@dataclass
class RunManifest:
    kind: str
    config: dict
    config_hash: str
    master_seed: int
    artifact_version: str
    started: str
    finished: str
    outputs: list[str] = field(default_factory=list)

    def write(self, path: Path):
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run(cfg: ExperimentConfig, quiet: bool = False) -> RunManifest:
    """Dispatch a validated config to its runner and write the manifest."""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg.kind](cfg, out, quiet)
    manifest = RunManifest(
        cfg.kind,
        cfg.to_dict(),
        config_hash(cfg),
        cfg.master_seed,
        __version__,
        started,
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        sorted(outputs),
    )
    manifest.write(out / "manifest.json")
    return manifest


def run_from_manifest(manifest_path, out_dir=None, quiet: bool = True) -> RunManifest:
    """Re-run the experiment recorded in a manifest (bit-for-bit outputs)."""
    with open(manifest_path) as fh:
        recorded = json.load(fh)
    raw = dict(recorded["config"])
    if out_dir is not None:
        raw["out"] = str(out_dir)
    return run(ExperimentConfig.from_dict(raw), quiet=quiet)


def _run_count(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    n, pl, ql = p["n"], p["cell_levels"], p["iface_levels"]
    kl = p.get("chem_levels", 2)
    inputs = input_state_count(n, pl, ql)
    chems = chemical_state_count(n, kl)
    payload = {
        "n": n,
        "cell_levels": pl,
        "iface_levels": ql,
        "chem_levels": kl,
        "input_states": str(inputs),
        "input_states_sci": format_scientific(inputs, 3),
        "chemical_states": str(chems),
        "chemical_states_sci": format_scientific(chems, 2),
    }
    if inputs % chems == 0:
        ratio = expansion_ratio(n, pl, ql, kl)
        payload["expansion_ratio"] = str(ratio)
        payload["expansion_ratio_sci"] = format_scientific(ratio, 2)
    with open(out / "counts.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"input states: {payload['input_states_sci']}")
        print(f"chemical states: {payload['chemical_states_sci']}")
        if "expansion_ratio_sci" in payload:
            print(f"expansion ratio: {payload['expansion_ratio_sci']}")
    return ["counts.json"]


def _run_cca1d(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    rule = Rule1D.from_label(p["rule"])
    grid = line(p["cells"], periodic=p.get("periodic", False))
    init = p.get("init")
    init_cs = np.asarray(init, np.uint8) if init is not None else single_seed(p["cells"])
    mode = p.get("mode", MODE_PROBABILISTIC)
    outputs = []
    for k in range(cfg.replicas):
        rng = stream_rng(cfg.master_seed, k)
        raster = run_1d(grid, init_cs, rule, p["steps"], mode=mode, rng=rng)
        stem = f"raster_{k:03d}" if cfg.replicas > 1 else "raster"
        (out / f"{stem}.txt").write_text(raster_to_text(raster))
        write_raster_csv(out / f"{stem}.csv", raster)
        outputs += [f"{stem}.txt", f"{stem}.csv"]
        if not quiet:
            print(f"replica {k}: rule {rule.label}, {p['steps']} steps, mode {mode}")
    return outputs


def _run_cca2d(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    params = ChemModel2DParams.from_dict(p["model"]) if "model" in p else ChemModel2DParams()
    result = run_population_experiment(
        p["side"],
        p["initial_chemits"],
        p["steps"],
        cfg.replicas,
        params,
        p.get("fluct_ratio", 0.1),
        cfg.master_seed,
    )
    outputs = []
    for k, series in enumerate(result.series):
        name = f"population_{k:03d}.csv"
        write_population_csv(out / name, series)
        outputs.append(name)
    summary = {
        "side": p["side"],
        "initial_chemits": p["initial_chemits"],
        "steps": p["steps"],
        "replicas": cfg.replicas,
        "mean_final": float(result.mean[-1]),
        "std_final": float(result.std[-1]),
        "mean_series_tail": [float(v) for v in result.mean[-10:]],
    }
    with open(out / "population_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("population_summary.json")
    if not quiet:
        print(f"final mean population: {summary['mean_final']:.2f}")
    return outputs


def _run_solve(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    problem = load_problem(p["problem"])
    solver = p.get("solver", 2)
    sp = SolverParams(
        p_chem=p.get("p_chem", 1.0),
        k_temp=p.get("k_temp", 5.0),
        max_steps=p.get("max_steps", 10_000),
        target_energy=p.get("target_energy"),
    )
    solve = solve_type1 if solver == 1 else solve_type2
    outputs = []
    summaries = []
    for k in range(cfg.replicas):
        rng = stream_rng(cfg.master_seed, k)
        trace = solve(problem, sp, rng)
        name = f"trace_{k:03d}.jsonl"
        trace.write_jsonl(out / name)
        outputs.append(name)
        summaries.append(trace.summary())
    with open(out / "solve_summary.json", "w") as fh:
        json.dump({"solver": solver, "runs": summaries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("solve_summary.json")
    if not quiet:
        best = min(s["best_energy"] for s in summaries)
        print(f"best energy over {cfg.replicas} runs: {best}")
    return outputs


def _run_markov(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    problem = load_problem(p["problem"])
    emin, configs = brute_force_min(problem)
    minima = [config_index(c) for c in configs]
    write_solution_json(out / "oracle.json", problem, emin, configs)
    outputs = ["oracle.json"]
    horizon = p.get("horizon")
    for idx in p.get("deterministic_indices", [1.0]):
        t = build_transition_matrix(problem, float(idx))
        report = success_probabilities(t, minima, horizon)
        tag = f"{float(idx):.4g}".replace(".", "p")
        report.write_csv(out / f"success_{tag}.csv")
        report.write_json(out / f"success_{tag}.json")
        outputs += [f"success_{tag}.csv", f"success_{tag}.json"]
        if not quiet:
            print(
                f"index {idx}: success min {report.min:.4f} max {report.max:.4f} "
                f"spread {report.spread():.4f}"
            )
    return outputs


def _run_clock_demo(cfg: ExperimentConfig, out: Path, quiet: bool) -> list[str]:
    p = cfg.params
    cells = p.get("cells", 7)
    cycles = p.get("cycles", 4)
    period = p.get("period", 12)
    jitter = p.get("jitter", 0)
    rng = stream_rng(cfg.master_seed, 0)
    traces = {i: [] for i in range(cells)}
    targets = []
    for _ in range(cycles):
        cycle_targets = [int(rng.integers(2)) for _ in range(cells)]
        targets.append(cycle_targets)
        bursts = [synthesize_trace(t, period, jitter, rng) for t in cycle_targets]
        span = max(len(b) for b in bursts)
        # cycle starts stay aligned: jitter drifts cells only within a cycle
        for i, burst in enumerate(bursts):
            traces[i].extend(burst + [ColorState.RED] * (span - len(burst)))
    length = min(len(v) for v in traces.values())
    bank = ClockedCellBank(cells, confirmations=p.get("confirmations", 2))
    decisions = []
    for frame in range(length):
        decision = bank.step_frame([traces[i][frame] for i in range(cells)])
        if decision is not None:
            decisions.append({"frame": frame, "cs": decision})
    write_trace_csv(out / "trace.csv", traces)
    payload = {
        "cells": cells,
        "cycles": cycles,
        "targets": targets,
        "decisions": decisions,
        "decoded": {str(i): decode_trace(traces[i]) for i in range(cells)},
    }
    with open(out / "decisions.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"{len(decisions)} gated decisions over {cycles} cycles")
    return ["trace.csv", "decisions.json"]


_RUNNERS = {
    "count": _run_count,
    "cca1d": _run_cca1d,
    "cca2d": _run_cca2d,
    "solve": _run_solve,
    "markov": _run_markov,
    "clock-demo": _run_clock_demo,
}
