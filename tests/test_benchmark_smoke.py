"""The benchmark runs clean: every workload, briefly, as its harness calls it.

Each run is ``python3 perfbench/run.py --workload W --seed 1 --seconds 0.5
--trace T`` in a subprocess from the root of the checkout, the command the
benchmark is run with, unmodified.  Its last line of standard output must
report a correct run with no failed operation, and standard error must hold
no warning: a map that fell back on a default, or numpy arithmetic that
overflowed, says so there.  The four runs take about 4 s together.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace", [("build", 0), ("verify", 0), ("maps", 0), ("verify", 1)]
)
def test_benchmark_workload_runs_clean(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0 and last["attempted"] >= 1, last
    assert "Warning" not in run.stderr, run.stderr
