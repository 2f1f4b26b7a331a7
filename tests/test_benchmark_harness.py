"""The benchmark harness still drives the program.

``perfbench/run.py --self-test`` runs a short H2 workload through the
tracer, which patches the program's entry points and state methods by
name; a renamed or re-signed method fails here rather than in the next
benchmark run. One traced repeat of each benchmark workload checks the
program's output on it against the benchmark's reference values (rtol
1e-7) and its measurement count, so a drift or a miscounted measurement
fails here too.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["lih-pauli", "lih-grouped-sample", "lih-noisy", "ising8-noisy"])
def test_benchmark_workload_repeat_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/repeat.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["errors"] == []
    assert record["layers"]["engine.step_calls"] == record["measurements"]
