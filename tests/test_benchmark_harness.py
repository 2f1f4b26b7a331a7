"""The benchmark harness still drives the program.

``perfbench/run.py --self-test`` runs a short H2 workload through the
tracer, which patches the program's entry points and state methods by
name; a renamed or re-signed method fails here rather than in the next
benchmark run. One traced repeat of each benchmark workload checks the
program's output on it against the benchmark's reference values (rtol
1e-7) and its measurement count, so a drift or a miscounted measurement
fails here too. How the workloads lower is pinned, step form by step
form (the noiseless ones to float64 K0s), so that a change to a support
cap or a lost real K0 that moves a workload onto another step path fails
here rather than only moving its numbers. So is how many steps of a
noisy workload's run move the whole density matrix.
"""
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pite_sim.engine as engine
from pite_sim import hamiltonian, pite
from pite_sim.circuit import build_grouped_step, build_pauli_step

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


def load_workloads():
    """perfbench/workloads.py, which imports nothing of the program."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def step_form(step) -> str:
    """A density-matrix step's form, a sandwich's with its width."""
    forms = {engine.SuperopStep: "superop", engine.MaskSandwichStep: "x-mask-{}",
             engine.PassSandwichStep: "passes-{}"}
    return forms[type(step)].format(len(step.support))


@pytest.mark.parametrize(
    "workload, forms",
    [
        ("lih-noisy", {"superop": 29, "x-mask-4": 28, "passes-6": 4}),
        ("ising8-noisy", {"superop": 24}),
    ],
)
def test_benchmark_noisy_models_lower_to_pinned_step_forms(workload, forms):
    """Noisy LiH lowers to 29 superoperator steps (supports of 1 to 3
    qubits), 28 sandwiches on 4 qubits whose weight and channel are one
    X-mask product and 4 on 6 qubits that run them as passes; noisy Ising
    n=8 to 24 superoperator steps."""
    workloads = load_workloads()
    w = workloads.WORKLOADS[workload]
    h, _ = workloads.model_and_init(w, hamiltonian)
    state = engine.DensityMatrix(h.n_qubits)
    noise = engine.NoiseModel(*w.noise)
    got = Counter(
        step_form(engine.lower_step(build_pauli_step(term, workloads.DT), state, noise))
        for term in h.terms
    )
    assert dict(got) == forms


@pytest.mark.parametrize("workload, most", [("ising8-noisy", 80), ("lih-noisy", 720)])
def test_benchmark_noisy_runs_move_the_matrix_in_few_steps(workload, most, monkeypatch):
    """A step moves the whole density matrix when what it gathers is not
    the stored buffer itself. Noisy Ising n=8 moves it in at most 80 of
    its 240 steps: a superoperator step whose sites sit side by side in
    the stored site-pair order multiplies in place, and only the ring's
    bonds move once the wrap-around bond (0, 7) has moved its sites to
    the front. Gathering every step's sites first, it moved in all 240.
    Noisy LiH moves it in no more of its 1220 steps than the 720 it
    moved then."""
    workloads = load_workloads()
    w = workloads.WORKLOADS[workload]
    h, init = workloads.model_and_init(w, hamiltonian)
    moved = []

    def counting(gather):
        def counted(self, step):
            out = gather(self, step)
            moved.append(not np.shares_memory(out[0], self._stored))
            return out

        return counted

    monkeypatch.setattr(engine._State, "_gather", counting(engine._State._gather))
    monkeypatch.setattr(engine.DensityMatrix, "_gather_sites", counting(engine.DensityMatrix._gather_sites))
    schedule = pite.Schedule(dt=workloads.DT, n_steps=w.n_steps)
    pite.run_pite(h, init, schedule, pite.RunConfig(noise=engine.NoiseModel(*w.noise)))
    assert len(moved) == w.n_steps * len(h.terms)
    assert sum(moved) <= most


@pytest.mark.parametrize("workload, k0s", [("lih-pauli", 61), ("lih-grouped-sample", 22)])
def test_benchmark_statevector_models_lower_to_float64_k0s(workload, k0s):
    """Noiseless LiH lowers to 61 float64 K0 steps per term and to 22 over
    the lih-22 grouping: every step of the two statevector workloads takes
    the real one-product, one-dot path."""
    from pite_sim import grouping

    workloads = load_workloads()
    w = workloads.WORKLOADS[workload]
    h, _ = workloads.model_and_init(w, hamiltonian)
    state = engine.StateVector(h.n_qubits)
    if w.grouping == "lih-22":
        blocks = grouping.group_hamiltonian(h, grouping.lih_groupspec())
        circuits = [build_grouped_step(block, workloads.DT) for block in blocks]
    else:
        circuits = [build_pauli_step(term, workloads.DT) for term in h.terms]
    got = Counter(
        (type(step).__name__, step.k0.dtype.name if type(step) is engine.K0Step else None)
        for step in (engine.lower_step(circuit, state) for circuit in circuits)
    )
    assert dict(got) == {("K0Step", "float64"): k0s}
