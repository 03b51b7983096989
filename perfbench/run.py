"""chemca benchmark: four batch workloads, host time end to end, and a
traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The passes of a workload run in one fresh
worker process (worker.py) that imports the program from ./src and sets
it up once; each pass is a child forked from it, so lazy caches start
cold as in a CLI run and the peak RSS is that of the workload alone.
One client, closed loop: the next pass starts when the previous ends.

--trace 0 times untraced passes of one workload for about S seconds and
reports the end-to-end metrics of BENCHMARK.json: wall_ref_s is the
fastest pass and work_per_ref_s the highest per-pass rate, both scaled
to the reference host speed (HOST_REF_S); setup_s and peak_rss_mb are
medians. The unscaled wall_s and work_per_s are printed and reported.
--trace 1 profiles every workload, the named one first, each for a
quarter of S: untraced and traced passes alternate, and the per-layer
metrics of BENCHMARK.json come from the traced ones, so every traced run
reports every layer. Every pass of a workload repeats the same inputs,
so the counts of all traced passes are equal.
--smoke runs every workload and check at tiny sizes and shows that the
checks catch corrupted outputs (see smoke.py).

The last line of standard output is the result JSON; the line before it
is a report with the machine, the output digests and the
workload-specific metrics, which the lines above it print with units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 4
SETUP_SAMPLES = 7  # set-up probes plus the set-up of the passes' worker
WORKER_TIMEOUT_S = 150  # beyond the seconds the passes are given
# Seconds of worker.calibrate() on the reference machine (NOTES.md). The
# worker times calibrate() before and after every pass; a run scales its
# fastest pass by HOST_REF_S over its fastest calibration, so a run made
# while a shared host's cores are slow reads about as one made while they
# are fast.
HOST_REF_S = 0.030
BLAS_THREADS = 1  # one client and no thread pool, BLAS included
WORKER_ENV = dict(os.environ, **{v: str(BLAS_THREADS) for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
RATE_NAMES = {"chemit-population": "cell_steps_per_s", "cca1d-raster": "cell_steps_per_s",
              "ising-solve": "proposals_per_s", "markov-exact": "acceptances_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or no pass completed)."""


def worker(job: dict, tmp: Path) -> dict:
    """Run one job in a fresh process and return its result."""
    fd, job_path = tempfile.mkstemp(dir=tmp, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(dict(job, src=str(SRC)), fh)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job_path], cwd=ROOT, env=WORKER_ENV,
                          capture_output=True, text=True, timeout=job.get("seconds", 0) + WORKER_TIMEOUT_S)
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"worker exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_passes(name: str, inputs: dict, tmp: Path, seconds: float, alternate: bool,
               minimum: int = MIN_PASSES, **extra) -> tuple[list[dict], dict]:
    """Passes of one workload until about `seconds` have gone, at least
    `minimum`; with `alternate`, untraced and traced in turn, in pairs.
    Returns the passes and the worker's own result (set-up time, env)."""
    out = Path(tempfile.mkdtemp(dir=tmp, prefix="passes-"))
    res = worker({"workload": name, "inputs": inputs, "out": str(out), "mode": "passes", "seconds": seconds,
                  "alternate": alternate, "minimum": minimum, **extra}, tmp)
    return res.pop("passes", [res]), res


def completed(passes: list[dict], name: str) -> list[dict]:
    done = [p for p in passes if "wall_s" in p]
    if not done:
        raise BenchError(f"no pass of {name} completed: {passes[0].get('crashed')}")
    return done


def op_counts(passes: list[dict], name: str, inputs: dict) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and a few distinct failure reasons."""
    errors = []
    for res in passes:
        errors += res.get("errors") or [res.get("crashed", "no result")] * (workloads.ops_per_pass(name, inputs) or 1)
    reasons = sorted({e for e in errors if e})
    return len(errors), sum(1 for e in errors if e), reasons[:5]


def end_to_end(name: str, seed: int, seconds: float, tmp: Path):
    inputs = workloads.make_inputs(name, seed)
    setups = [worker({"workload": name, "inputs": inputs, "out": str(tmp), "mode": "setup"}, tmp)
              for _ in range(SETUP_SAMPLES - 1)]
    passes, own = run_passes(name, inputs, tmp, seconds, alternate=False)
    done = completed(passes, name)
    # A run reports its fastest pass: on a shared host the speed of a core
    # changes for seconds to minutes at a time, and the fastest pass moves
    # least from run to run (NOTES.md has the measurements).
    walls = [p["wall_s"] for p in done]
    scale = HOST_REF_S / min(own["host_s"])
    rate = max(p["work"] / p["wall_s"] for p in done)
    metrics = {
        "wall_ref_s": min(walls) * scale,
        "setup_s": median([s["setup_s"] for s in setups + [own] if "setup_s" in s]),
        "peak_rss_mb": median([p["rss_mb"] for p in done]),
        "work_per_ref_s": rate / scale,
    }
    named = {"wall_s": {"value": min(walls), "unit": "s"}, "work_per_s": {"value": rate, "unit": "1/s"},
             RATE_NAMES[name]: {"value": rate, "unit": "1/s"}}
    if name == "ising-solve":
        runs = [r for p in done for r in p["runs"] if not r["cut"]]
        for solver in ("1", "2"):
            pct = workloads.percentile_ms([r["solve_s"] for r in runs if r["solver"] == solver])
            for q in ("p50", "p90"):
                named[f"tts_type{solver}_ms_{q}"] = {"value": pct[q], "unit": "ms", "samples": pct["samples"]}
        named["success_rate"] = {"value": sum(r["success"] for r in runs) / len(runs), "unit": "ratio",
                                 "samples": len(runs)}
    attempted, failed, reasons = op_counts(passes, name, inputs)
    report = {"passes": len(passes), "wall_s_per_pass": walls, "wall_s_median": median(walls),
              "host_s": own["host_s"],
              "setup_samples": sum("setup_s" in s for s in setups + [own]), "failed_reasons": reasons,
              "digests": sorted({p["digest"] for p in done if "digest" in p}), "named": named}
    return metrics, report, attempted, failed, own["env"]


def profile(first: str, seed: int, seconds: float, tmp: Path, smoke: bool = False, min_pairs: int = 1):
    metrics, report, missing, inexact = {}, {}, [], []
    attempted = failed = 0
    for name in [first] + [w for w in workloads.WORKLOADS if w != first]:
        inputs = workloads.make_inputs(name, seed, smoke)
        passes, own = run_passes(name, inputs, tmp, seconds / len(workloads.WORKLOADS), alternate=True,
                                 minimum=2 * min_pairs)
        a, f, reasons = op_counts(passes, name, inputs)
        attempted, failed = attempted + a, failed + f
        done = completed(passes, name)
        plain = [p for p in done if "spans" not in p]
        traced = [p for p in done if "spans" in p]
        if not plain or not traced:
            raise BenchError(f"{name}: no complete pair of untraced and traced passes")
        pairs = [workloads.layer_metrics(name, t, u) for t, u in zip(traced, plain)]
        for key in pairs[0][0]:
            values = [m[key] for m, _ in pairs]
            metrics[key] = median(values)
            if workloads.is_count(key) and len(set(values)) > 1:
                inexact.append(key)
        missing += pairs[0][1]
        report[name] = {"passes": len(passes), "failed_reasons": reasons,
                        "digests": sorted({p["digest"] for p in done if "digest" in p}),
                        "spans": {k: {"calls": s["calls"], "total_s": s["total_s"], "self_s": s["self_s"]}
                                  for k, s in traced[0]["spans"].items()}}
        env = own["env"]
    report.update(missing=missing, inexact_counts=inexact)
    return metrics, report, attempted, failed, env


def machine(seed: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(), "numpy": env["numpy"],
            "blas": env["blas"], "blas_threads": min(BLAS_THREADS, nproc), "seed": seed}


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(metrics: dict, units: dict, report: dict, attempted: int, failed: int) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, m in report.get("named", {}).items():
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{samples}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ratio (n={attempted})")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        if not (SRC / "chemca" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'chemca'}")
        units = declared("per_layer" if args.trace else "end_to_end")
        WORK.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
        try:
            if args.smoke:
                import smoke
                return smoke.main(tmp, worker, run_passes, profile)
            measure = profile if args.trace else end_to_end
            metrics, report, attempted, failed, env = measure(args.workload, args.seed, args.seconds, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:  # another run is still using it
                pass
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        print(f"metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    report.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  machine=machine(args.seed, env), undelivered=sorted(set(units) - set(metrics)))
    emit(metrics, units, report, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
