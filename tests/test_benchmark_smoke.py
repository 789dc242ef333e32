"""The benchmark runs clean: every workload, briefly, as its harness calls it.

Each run is ``python3 perfbench/run.py --workload W --seed 1 --seconds 0.5
--trace T`` in a subprocess from the root of the checkout, the command the
benchmark is run with, unmodified, for every workload untraced and traced.
Its last line of standard output must report a correct run with no failed
operation, carrying exactly the metrics ``BENCHMARK.json`` declares: its
``end_to_end`` names untraced, its ``per_layer`` names traced.  Standard
output must name no ``unmeasured`` wrap target: the tracer wraps program
names where it looks them up (``perfbench/tracer.py``, ``install``), and
a run whose target is gone still exits 0, with its metrics missing.
Standard error must hold no warning: a map that fell back on a default, or
numpy arithmetic that overflowed, says so there.  The six runs take about
8 s together.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build", "verify", "maps"])
def test_benchmark_workload_runs_clean(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert not [line for line in lines if line.startswith("unmeasured")], run.stdout
    last = json.loads(lines[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0 and last["attempted"] >= 1, last
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(metric["name"] for metric in declared)
    assert "Warning" not in run.stderr, run.stderr
