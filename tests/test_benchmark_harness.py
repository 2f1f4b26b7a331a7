"""The benchmark harness still drives the program.

``perfbench/run.py --self-test`` runs a short H2 workload through the
tracer, which patches the program's entry points and state methods by
name; a renamed or re-signed method fails here rather than in the next
benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
