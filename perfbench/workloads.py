"""The four workloads: inputs made from the seed, one timed pass, checks,
and the wrappers and per-layer metrics of the traced run.

`make_inputs` and `layer_metrics` use the standard library only, so the
benchmark's parent process never imports the program. Everything else
runs inside a worker process (see worker.py), where `cc` is the imported
`chemca` package.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from pathlib import Path

import checks

WORKLOADS = ("chemit-population", "cca1d-raster", "ising-solve", "markov-exact")

# The worked 4-city TSP of the paper (16 variables).
CITIES = [[0, 0], [1, 0], [3, 3], [0, 10]]
# One fixed 9-number partition, as ising-solve has one fixed TSP, so the
# cost of a pass does not change with the seed. From MC_STARTS, index 1.0
# reaches the minimum with probability 0 and about 0.19 (the Monte-Carlo
# chains run the whole horizon), index 0.95 with probability 1.
PARTITION = [22, 32, 29, 33, 30, 26, 5, 37, 39]
MC_STARTS = [350, 459]
MC_RUNS = 500


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Inputs of one workload; the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    program_seed = rng.randrange(1 << 32)
    if workload == "chemit-population":
        side, init, steps = (10, 5, 20) if smoke else (50, 100, 500)
        return {"config": {"kind": "cca2d", "side": side, "initial_chemits": init,
                           "steps": steps, "replicas": 2, "seed": program_seed}}
    if workload == "cca1d-raster":
        cells, steps = (21, 20) if smoke else (201, 500)
        init = [rng.randrange(2) for _ in range(cells)]
        return {"configs": [{"kind": "cca1d", "rule": "30-5", "cells": cells, "steps": steps,
                             "mode": mode, "init": init, "seed": program_seed}
                            for mode in ("probabilistic", "display")]}
    if workload == "ising-solve":
        # Seeded runs on streams 0, 1, 2, ... until a fixed number of
        # proposals, the last run cut at the budget, so every pass of every
        # seed makes the same number of proposals (about 8 Type-1 and 9
        # Type-2 runs); a fixed run count would vary the work by about 15%.
        budget = {"1": 3000, "2": 600} if smoke else {"1": 12_000, "2": 2_000}
        return {"problem": {"kind": "tsp", "coords": CITIES}, "seed": program_seed,
                "p_chem": 0.95, "max_steps": 10_000, "proposal_budget": budget}
    if workload == "markov-exact":
        n = 6 if smoke else len(PARTITION)
        return {"config": {"kind": "markov", "seed": program_seed,
                           "problem": {"kind": "partition", "numbers": PARTITION[:n]},
                           "deterministic_indices": [1.0, 0.95]},
                "mc_starts": [start % (1 << n) for start in MC_STARTS],
                "mc_seed": rng.randrange(1 << 32)}
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_pass(workload: str, inputs: dict) -> int | None:
    """Operations a pass attempts, where known before it runs: replicas,
    raster runs or Markov indices; None for the seeded solver runs."""
    if workload == "chemit-population":
        return inputs["config"]["replicas"]
    if workload == "cca1d-raster":
        return len(inputs["configs"])
    if workload == "markov-exact":
        return len(inputs["config"]["deterministic_indices"])
    return None


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))


# ---- chemit-population --------------------------------------------------

class ChemitPopulation:
    def setup(self, cc, inputs):
        cc.harness.ExperimentConfig.from_dict(inputs["config"])
        return None

    def prepare(self, inputs, out: Path):
        _write_json(out / "input" / "config.json", dict(inputs["config"], out=str(out / "run")))

    def run(self, cc, inputs, ctx, out: Path) -> dict:
        code = cc.cli.main(["cca2d", "--config", str(out / "input" / "config.json"), "--quiet"])
        cfg = inputs["config"]
        return {"exit": code, "work": cfg["side"] ** 2 * cfg["steps"] * cfg["replicas"]}

    def check(self, cc, inputs, ctx, out: Path, result) -> list[str]:
        return checks.check_population(out / "run", inputs["config"])

    def trace(self, cc, tr):
        def on_update(stats, args, kwargs, result):
            pwm = kwargs.get("pwm", args[1] if len(args) > 1 else None)
            stats.add("cores_in", int((pwm.classes == int(cc.chemodel.PwmClass.CORE)).sum()))
            for name, value in vars(result[1]).items():
                stats.add(name, value)

        tr.wrap(cc.cca2d, "step_chemits", "cca2d.step_chemits")
        tr.wrap(cc.cca2d, "cca2d_update", "cca2d.cca2d_update", on_update)
        tr.wrap(cc.cca2d, "prob_high_2d_grid", "chemodel.prob_high_2d_grid",
                lambda s, a, k, r: s.add("cells", r.size))
        tr.wrap(cc.harness, "write_population_csv", "harness.write_population_csv",
                lambda s, a, k, r: s.add("bytes", os.path.getsize(a[0])))

    def extra(self, inputs, out: Path) -> dict:
        return {}


# ---- cca1d-raster -------------------------------------------------------

class Cca1dRaster:
    def setup(self, cc, inputs):
        for cfg in inputs["configs"]:
            cc.harness.ExperimentConfig.from_dict(cfg)
        return None

    def prepare(self, inputs, out: Path):
        for cfg in inputs["configs"]:
            _write_json(out / "input" / f"{cfg['mode']}.json", dict(cfg, out=str(out / "run" / cfg["mode"])))

    def run(self, cc, inputs, ctx, out: Path) -> dict:
        codes = [cc.cli.main(["cca1d", "--config", str(out / "input" / f"{cfg['mode']}.json"), "--quiet"])
                 for cfg in inputs["configs"]]
        work = sum(cfg["cells"] * cfg["steps"] for cfg in inputs["configs"])
        return {"exit": max(codes), "work": work}

    def check(self, cc, inputs, ctx, out: Path, result) -> list[str]:
        errors = []
        for cfg in inputs["configs"]:
            check = checks.check_display if cfg["mode"] == "display" else checks.check_probabilistic
            errors.append(_reason(check, out / "run" / cfg["mode"], cfg))
        return errors

    def trace(self, cc, tr):
        def on_step(stats, args, kwargs, result):
            stats.add("cells", args[0].width)

        tr.wrap(cc.cca1d, "step_1d", lambda a, k: f"cca1d.step_1d.{k.get('mode', 'probabilistic')}", on_step)
        tr.wrap(cc.harness, "write_raster_csv", "cca1d.write_raster_csv",
                lambda s, a, k, r: s.add("bytes", os.path.getsize(a[0])))
        tr.wrap(cc.harness, "raster_to_text", "cca1d.raster_to_text")

    def extra(self, inputs, out: Path) -> dict:
        text = (out / "run" / "probabilistic" / "raster.txt").read_text()
        return {"high_fraction": text.count("#") / (text.count("#") + text.count("."))}


# ---- ising-solve --------------------------------------------------------

class IsingSolve:
    def setup(self, cc, inputs):
        problem = cc.qubo.load_problem(inputs["problem"])
        emin, _ = cc.qubo.brute_force_min(problem)
        return {"problem": problem, "emin": emin}

    def prepare(self, inputs, out: Path):
        pass

    def run(self, cc, inputs, ctx, out: Path) -> dict:
        """Seeded runs of each solver, traces written as JSONL, as the
        `solve` CLI kind does; each run's solve time is timed on its own.
        A run that the budget cut before the oracle minimum is marked `cut`:
        it is checked, but it is no sample of time to solution."""
        problem, runs = ctx["problem"], []
        for solver in ("1", "2"):
            solve = getattr(cc.hybrid, f"solve_type{solver}")
            folder = out / "run" / f"type{solver}"
            folder.mkdir(parents=True, exist_ok=True)
            summaries, proposals, k = [], 0, 0
            budget = inputs["proposal_budget"][solver]
            while proposals < budget:
                max_steps = min(inputs["max_steps"], budget - proposals)
                params = cc.hybrid.SolverParams(p_chem=inputs["p_chem"] if solver == "2" else 1.0,
                                                max_steps=max_steps, target_energy=ctx["emin"])
                rng = cc.harness.stream_rng(inputs["seed"], k)
                t0 = time.perf_counter()
                trace = solve(problem, params, rng)
                elapsed = time.perf_counter() - t0
                trace.write_jsonl(folder / f"trace_{k:03d}.jsonl")
                summary = trace.summary()
                summaries.append(summary)
                runs.append({"solver": solver, "solve_s": elapsed, "steps": trace.n_steps,
                             "success": bool(trace.success),
                             "cut": max_steps < inputs["max_steps"] and not trace.success})
                proposals += trace.n_steps
                k += 1
            with open(folder / "solve_summary.json", "w") as fh:
                json.dump({"solver": int(solver), "runs": summaries}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return {"exit": 0, "work": sum(r["steps"] for r in runs), "runs": runs}

    def check(self, cc, inputs, ctx, out: Path, result) -> list[str]:
        emin_ref = checks.tsp_min_energy(inputs["problem"]["coords"])
        oracle_ok = abs(ctx["emin"] - emin_ref) <= 1e-9
        errors = []
        for solver in ("1", "2"):
            folder = out / "run" / f"type{solver}"
            summaries = json.loads((folder / "solve_summary.json").read_text())["runs"]
            rng = random.Random(f"check:{solver}")
            for k, summary in enumerate(summaries):
                if not oracle_ok:
                    errors.append(f"oracle minimum {ctx['emin']} != tour reference {emin_ref}")
                    continue
                errors.append(_reason(checks.check_solve_run, folder / f"trace_{k:03d}.jsonl", summary,
                                      ctx["problem"], cc.qubo.energy, emin_ref, rng))
        return errors

    def trace(self, cc, tr):
        def on_solve(stats, args, kwargs, result):
            stats.add("proposals", result.n_steps)
            stats.add("accepted", int(sum(result.accepted)))

        tr.wrap(cc.hybrid, "solve_type1", "hybrid.solve_type1", on_solve)
        tr.wrap(cc.hybrid, "solve_type2", "hybrid.solve_type2", on_solve)
        tr.wrap(cc.hybrid, "energy", "qubo.energy")
        tr.wrap(cc.hybrid, "flip_terms", "qubo.flip_terms")
        tr.wrap(cc.hybrid, "config_index", "qubo.config_index")
        tr.wrap(cc.hybrid.SolveTrace, "record", "hybrid.SolveTrace.record")
        tr.wrap(cc.hybrid.SolveTrace, "write_jsonl", "hybrid.SolveTrace.write_jsonl",
                lambda s, a, k, r: s.add("bytes", os.path.getsize(a[1])))

    def extra(self, inputs, out: Path) -> dict:
        return {}


# ---- markov-exact -------------------------------------------------------

class MarkovExact:
    def setup(self, cc, inputs):
        cc.harness.ExperimentConfig.from_dict(inputs["config"])
        return {"problem": cc.qubo.load_problem(inputs["config"]["problem"])}

    def prepare(self, inputs, out: Path):
        _write_json(out / "input" / "config.json", dict(inputs["config"], out=str(out / "run")))

    def run(self, cc, inputs, ctx, out: Path) -> dict:
        """The `markov` CLI kind, then a Monte-Carlo cross-check of the
        exact success curve from a few starts at every index."""
        code = cc.cli.main(["markov", "--config", str(out / "input" / "config.json"), "--quiet"])
        problem, n = ctx["problem"], len(inputs["config"]["problem"]["numbers"])
        rng = cc.harness.stream_rng(inputs["mc_seed"], 0)
        mc = {}
        for idx in inputs["config"]["deterministic_indices"]:
            mc[str(idx)] = [cc.markov.empirical_success(problem, idx, start, 100 * n, MC_RUNS, rng)
                            for start in inputs["mc_starts"]]
        _write_json(out / "run" / "monte_carlo.json", mc)
        indices = inputs["config"]["deterministic_indices"]
        return {"exit": code, "work": (1 << n) * n * len(indices)}

    def check(self, cc, inputs, ctx, out: Path, result) -> list[str]:
        run = out / "run"
        numbers = inputs["config"]["problem"]["numbers"]
        emin, minima = checks.partition_minima(numbers)
        mc = json.loads((run / "monte_carlo.json").read_text())
        oracle = json.loads((run / "oracle.json").read_text())

        def check_index(idx):
            checks.require(oracle["min_energy"] == emin and oracle["argmin_indices"] == minima,
                           "oracle.json disagrees with the partition reference")
            tag = f"{float(idx):.4g}".replace(".", "p")
            values = checks.check_success_csv(run / f"success_{tag}.csv", len(numbers), minima)
            for start, empirical in zip(inputs["mc_starts"], mc[str(idx)]):
                checks.check_monte_carlo(values[start], empirical, MC_RUNS)

        return [_reason(check_index, idx) for idx in inputs["config"]["deterministic_indices"]]

    def trace(self, cc, tr):
        tr.wrap(cc.harness, "build_transition_matrix", "markov.build_transition_matrix")
        tr.wrap(cc.markov, "acceptance_prob", "markov.acceptance_prob")
        tr.wrap(cc.markov, "qubo_to_ising", "markov.qubo_to_ising")
        tr.wrap(cc.harness, "success_probabilities", "markov.success_probabilities")
        tr.wrap(cc.markov, "empirical_success", "markov.empirical_success")
        tr.wrap(cc.harness, "brute_force_min", "qubo.brute_force_min")
        tr.wrap(cc.qubo, "brute_force_min", "qubo.brute_force_min")

    def extra(self, inputs, out: Path) -> dict:
        n = len(inputs["config"]["problem"]["numbers"])
        return {"dense_matrix_bytes": 8 * (1 << n) ** 2}


def _reason(check, *args) -> str:
    """Run one check; an empty string means it passed."""
    try:
        check(*args)
    except Exception as exc:  # any error reading or checking an output fails the operation
        return f"{type(exc).__name__}: {exc}"
    return ""


IMPLS = {"chemit-population": ChemitPopulation(), "cca1d-raster": Cca1dRaster(),
         "ising-solve": IsingSolve(), "markov-exact": MarkovExact()}


# ---- per-layer metrics, computed in the parent from worker results --------

class Missing(Exception):
    """A wrapped function that the workload never called."""


def layer_metrics(workload: str, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one workload from one traced pass and one
    untraced pass; returns (metrics, names of metrics whose span is missing)."""
    spans, extra = traced["spans"], traced["extra"]

    def span(key):
        s = spans.get(key)
        if not s or s["calls"] == 0:
            raise Missing(key)
        return s

    def count(key, name):
        return span(key)["counts"][name]

    defs = {}
    if workload == "chemit-population":
        upd, grid = "cca2d.cca2d_update", "chemodel.prob_high_2d_grid"
        defs.update({
            f"{upd}.calls": lambda: span(upd)["calls"],
            f"{upd}.self_s": lambda: span(upd)["self_s"],
            f"{upd}.us_per_call": lambda: 1e6 * span(upd)["self_s"] / span(upd)["calls"],
            f"{upd}.cores_in": lambda: count(upd, "cores_in"),
            f"{upd}.us_per_core": lambda: 1e6 * span(upd)["self_s"] / count(upd, "cores_in"),
            f"{grid}.calls": lambda: span(grid)["calls"],
            f"{grid}.self_s": lambda: span(grid)["self_s"],
            f"{grid}.ns_per_cell": lambda: 1e9 * span(grid)["self_s"] / count(grid, "cells"),
            "cca2d.step_chemits.self_s": lambda: span("cca2d.step_chemits")["self_s"],
            "harness.write_population_csv.self_s": lambda: span("harness.write_population_csv")["self_s"],
            "harness.write_population_csv.bytes": lambda: count("harness.write_population_csv", "bytes"),
        })
        for event in ("propagation", "replication", "annihilation", "competition_survived",
                      "competition_died", "random_selection"):
            defs[f"cca2d.events.{event}"] = lambda event=event: count(upd, event)
    elif workload == "cca1d-raster":
        disp, prob = "cca1d.step_1d.display", "cca1d.step_1d.probabilistic"

        def ns_per_cell(key):
            return 1e9 * span(key)["self_s"] / count(key, "cells")

        defs.update({
            f"{disp}.calls": lambda: span(disp)["calls"],
            f"{disp}.self_s": lambda: span(disp)["self_s"],
            f"{disp}.ns_per_cell": lambda: ns_per_cell(disp),
            f"{prob}.self_s": lambda: span(prob)["self_s"],
            f"{prob}.ns_per_cell": lambda: ns_per_cell(prob),
            "cca1d.chem_phase.ns_per_cell": lambda: ns_per_cell(prob) - ns_per_cell(disp),
            "cca1d.write_raster_csv.self_s": lambda: span("cca1d.write_raster_csv")["self_s"],
            "cca1d.write_raster_csv.bytes": lambda: count("cca1d.write_raster_csv", "bytes"),
            "cca1d.raster_to_text.self_s": lambda: span("cca1d.raster_to_text")["self_s"],
            "cca1d.high_fraction": lambda: extra["high_fraction"],
        })
    elif workload == "ising-solve":
        for solver in ("1", "2"):
            key = f"hybrid.solve_type{solver}"
            plain = [r for r in untraced["runs"] if r["solver"] == solver]
            defs.update({
                f"{key}.proposals": lambda key=key: count(key, "proposals"),
                # from the untraced pass: inner wrappers would inflate it
                f"{key}.us_per_proposal": lambda plain=plain: (
                    1e6 * sum(r["solve_s"] for r in plain) / sum(r["steps"] for r in plain)),
                f"{key}.accept_rate": lambda key=key: count(key, "accepted") / count(key, "proposals"),
                f"{key}.energy_calls_per_proposal": lambda key=key: (
                    span(key)["children"].get("qubo.energy", 0) / count(key, "proposals")),
            })
        defs.update({
            "qubo.energy.self_s": lambda: span("qubo.energy")["self_s"],
            "qubo.flip_terms.calls": lambda: span("qubo.flip_terms")["calls"],
            "qubo.flip_terms.self_s": lambda: span("qubo.flip_terms")["self_s"],
            "qubo.config_index.calls": lambda: span("qubo.config_index")["calls"],
            "qubo.config_index.self_s": lambda: span("qubo.config_index")["self_s"],
            "hybrid.SolveTrace.record.self_s": lambda: span("hybrid.SolveTrace.record")["self_s"],
            "hybrid.SolveTrace.write_jsonl.self_s": lambda: span("hybrid.SolveTrace.write_jsonl")["self_s"],
            "hybrid.SolveTrace.write_jsonl.bytes": lambda: count("hybrid.SolveTrace.write_jsonl", "bytes"),
        })
    elif workload == "markov-exact":
        acc = "markov.acceptance_prob"
        defs.update({
            "markov.build_transition_matrix.self_s": lambda: span("markov.build_transition_matrix")["self_s"],
            f"{acc}.calls": lambda: span(acc)["calls"],
            f"{acc}.us_per_call": lambda: 1e6 * span(acc)["total_s"] / span(acc)["calls"],
            "markov.qubo_to_ising.calls": lambda: span("markov.qubo_to_ising")["calls"],
            "markov.success_probabilities.self_s": lambda: span("markov.success_probabilities")["self_s"],
            "markov.empirical_success.self_s": lambda: span("markov.empirical_success")["self_s"],
            "markov.dense_matrix_bytes": lambda: extra["dense_matrix_bytes"],
            "qubo.brute_force_min.self_s": lambda: span("qubo.brute_force_min")["self_s"],
        })
    metrics, missing = {}, []
    for name, fn in defs.items():
        try:
            metrics[name] = fn()
        except Missing:
            missing.append(name)
    metrics[f"trace.overhead_ratio.{workload}"] = traced["wall_s"] / untraced["wall_s"]
    return metrics, missing


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is a count of simulated or program work,
    which repeats exactly for the same inputs, rather than a host time."""
    timed = ("self_s", "us_per_call", "us_per_core", "us_per_proposal", "ns_per_cell")
    return not metric.startswith("trace.") and metric.rsplit(".", 1)[-1] not in timed


def percentile_ms(values: list[float]) -> dict:
    """Median and 90th percentile in ms, with the sample count."""
    q = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
    return {"p50": 1e3 * statistics.median(values), "p90": 1e3 * q[8], "samples": len(values)}
