"""Smoke mode: every workload and every check at tiny sizes, then proof
that the checks and the missing-span report can fail.

    python3 perfbench/run.py --smoke

1. A traced run over all workloads at smoke sizes must fail no operation
   and report every per-layer metric. A second traced run with three
   traced passes per workload, not one, must report the same counts.
2. For each workload, one output is corrupted on disk and the workload's
   checks are run again on it: the matching check must fail.
3. A traced pass in which the program bypasses one wrapped function must
   report that function's metrics as missing, not as zero.

Exits 0 only when all of these hold.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads


def _corrupt_population(run: Path) -> str:
    path = run / "population_001.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return "dropped the last row of population_001.csv"


def _corrupt_display(run: Path) -> str:
    path = run / "display" / "raster.txt"
    rows = path.read_text().splitlines()
    rows[-1] = ("." if rows[-1][0] == "#" else "#") + rows[-1][1:]
    path.write_text("\n".join(rows) + "\n")
    return "flipped one cell of the display raster"


def _corrupt_trace(run: Path) -> str:
    path = run / "type1" / "trace_000.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["energy"] += 0.5
    lines[-1] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    return "shifted the last recorded energy of a Type-1 trace"


def _corrupt_success(run: Path) -> str:
    path = next(run.glob("success_0p95.csv"))
    rows = path.read_text().splitlines()
    minimum = json.loads((run / "oracle.json").read_text())["argmin_indices"][0]
    rows[minimum + 1] = f"{minimum},0.5"
    path.write_text("\n".join(rows) + "\n")
    return "set the success of a minimum to 0.5"


CORRUPT = {"chemit-population": _corrupt_population, "cca1d-raster": _corrupt_display,
           "ising-solve": _corrupt_trace, "markov-exact": _corrupt_success}
BYPASS = ("cca2d", "prob_high_2d_grid")


def main(tmp: Path, worker, run_passes, profile) -> int:
    results, ok = {}, True

    metrics, report, attempted, failed, _ = profile(workloads.WORKLOADS[0], 1, 0, tmp, smoke=True)
    clean = failed == 0 and not report["missing"] and attempted > 0
    results["clean"] = {"attempted": attempted, "failed": failed, "missing": report["missing"],
                        "per_layer_metrics": len(metrics), "ok": clean}
    ok &= clean

    longer, report3, *_ = profile(workloads.WORKLOADS[0], 1, 0, tmp, smoke=True, min_pairs=3)
    counts = sorted(k for k in metrics if workloads.is_count(k))
    differ = [k for k in counts if longer.get(k) != metrics[k]]
    repeat = bool(counts) and not differ and not report["inexact_counts"] and not report3["inexact_counts"]
    results["counts_repeat"] = {"counts": len(counts), "differ": differ,
                                "inexact": report3["inexact_counts"], "ok": repeat}
    ok &= repeat

    for name in workloads.WORKLOADS:
        inputs = workloads.make_inputs(name, 1, smoke=True)
        (first,), _ = run_passes(name, inputs, tmp, 0, alternate=False, minimum=1, keep=True)
        what = CORRUPT[name](Path(first["out"]) / "run")
        second = worker({"workload": name, "inputs": inputs, "out": first["out"], "mode": "check"}, tmp)
        caught = not any(first["errors"]) and any(second["errors"])
        results[name] = {"corruption": what, "caught": caught,
                         "reason": next((e for e in second["errors"] if e), None)}
        ok &= caught

    name = "chemit-population"
    inputs = workloads.make_inputs(name, 1, smoke=True)
    (plain, traced), _ = run_passes(name, inputs, tmp, 0, alternate=True, minimum=2, bypass=list(BYPASS))
    layer, missing = workloads.layer_metrics(name, traced, plain)
    caught = bool(missing) and all(m.startswith("chemodel.prob_high_2d_grid") for m in missing) \
        and not any(m.startswith("chemodel.prob_high_2d_grid") for m in layer)
    results["bypassed_span"] = {"bypassed": ".".join(BYPASS), "missing": missing, "caught": caught}
    ok &= caught

    for key, value in results.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1
