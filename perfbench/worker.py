"""The benchmark passes of one workload, in a fresh process.

    python3 perfbench/worker.py JOB.json

The job names the workload, its inputs, an output directory, the
program's source directory and a mode:

- "setup": time the set-up alone (import, validation, problem, oracle);
- "passes": set up, then run passes until about `seconds` have gone and
  at least `minimum` have run, untraced and traced in turn (in pairs)
  when `alternate` is set. Each pass is a child forked from the set-up
  process, so every pass starts from the same state: the program
  imported and set up, its lazy caches still cold. The child times the
  pass, checks its outputs and reports its peak RSS;
- "check": set up, then only check the outputs already in the directory.

The last line of standard output is the result as JSON. Exit code 3
means the program could not be imported from the source directory.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    try:
        import chemca
        import chemca.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        sys.exit(f"cannot import chemca from {src}: {exc}")
    if Path(chemca.__file__).resolve().parent != (src / "chemca").resolve():
        sys.exit(f"chemca was imported from {chemca.__file__}, not from {src}")
    return chemca


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _pass(job: dict, impl, cc, ctx, out: Path, trace: bool) -> dict:
    """Run, time and check one pass; runs in the forked child."""
    inputs = job["inputs"]
    impl.prepare(inputs, out)
    tracer = Tracer() if trace else None
    if tracer:
        impl.trace(cc, tracer)
        if job.get("bypass"):  # smoke mode: the program stops calling a wrapped name
            owner = getattr(cc, job["bypass"][0])
            setattr(owner, job["bypass"][1], getattr(owner, job["bypass"][1]).__wrapped__)
    result = {}
    t0 = time.perf_counter()
    try:
        run = impl.run(cc, inputs, ctx, out)
        if run["exit"] != 0:
            raise RuntimeError(f"exit code {run['exit']}")
    except Exception as exc:  # the program failed: so did every operation of the pass
        result["errors"] = [f"{type(exc).__name__}: {exc}"] * (workloads.ops_per_pass(job["workload"], inputs) or 1)
        return result
    result["wall_s"] = time.perf_counter() - t0
    if tracer:
        tracer.restore()
        result["spans"] = {k: vars(s) for k, s in tracer.stats.items()}
    result.update(work=run["work"], runs=run.get("runs", []),
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  digest=checks.output_digest(out / "run"),
                  extra=impl.extra(inputs, out) if trace else {})
    result["errors"] = impl.check(cc, inputs, ctx, out, result)
    return result


def _forked_pass(job: dict, impl, cc, ctx, out: Path, trace: bool) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(_pass(job, impl, cc, ctx, out, trace), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"crashed": f"pass process ended with wait status {status}"}
    return json.loads(data)


def calibrate(np) -> float:
    """Seconds for a fixed mix of interpreter work, small array operations
    and a small matrix product: the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(80_000):
        s += i * i % 7
    a = np.arange(2048, dtype=np.float64)
    for _ in range(600):
        a = (a * 1.0001 + 1.0) % 1000.0
    m = np.full((128, 128), 0.01)
    for _ in range(40):
        m = m @ m
    return time.perf_counter() - t0


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    impl = workloads.IMPLS[job["workload"]]
    inputs, out, mode = job["inputs"], Path(job["out"]), job["mode"]

    t0 = time.perf_counter()
    try:
        cc = _import_program(Path(job["src"]))
        ctx = impl.setup(cc, inputs)
    except SystemExit as exc:
        print(exc.code, file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - t0

    import numpy as np

    result = {"setup_s": setup_s, "env": _environment(np)}
    if mode == "check":
        result["errors"] = impl.check(cc, inputs, ctx, out, result)
    elif mode == "passes":
        passes, start = [], time.perf_counter()
        step = 2 if job["alternate"] else 1
        host_s = [calibrate(np)]
        while True:
            folder = out / f"pass-{len(passes)}"
            folder.mkdir()
            sys.stdout.flush()
            passes.append(_forked_pass(job, impl, cc, ctx, folder, job["alternate"] and len(passes) % 2 == 1))
            host_s.append(calibrate(np))
            if job.get("keep"):  # smoke mode corrupts and checks the outputs again
                passes[-1]["out"] = str(folder)
            else:
                shutil.rmtree(folder)
            n, elapsed = len(passes), time.perf_counter() - start
            # stop when one more round of `step` passes would likely end past `seconds`
            if n >= job["minimum"] and n % step == 0 and elapsed * (1 + step / n) > job["seconds"]:
                break
        result.update(passes=passes, host_s=host_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
