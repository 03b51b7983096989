"""The benchmark's smoke run, as a guard on the contract it relies on.

`perfbench/run.py --smoke` runs every workload and its checks at tiny
sizes, wraps every traced name of the program and shows that the checks
catch corrupted outputs. A refactor that renames a traced function or
changes a workload's outputs fails here before it fails a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke_ok": True}
