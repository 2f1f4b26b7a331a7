"""Workload table of the pite-sim benchmark.

Each workload is one evolution run through the library's public entry
points (``run_pite`` / ``run_generalized`` with the spectrum passed in),
preceded by its set-up: model and initial state, the grouping if any, and
``diagonalize``. Nothing here imports pite_sim: the parent process
validates names without loading the program under test, and
``model_and_init`` builds from whichever copy it is handed (the program's
or the frozen reference in ``refsim``).

``reference`` holds (|E_final - E0|, final p_cum) as the program computed
them at the commit that introduced the benchmark. Runs are checked
against them at ``REFERENCE_RTOL``: loose enough for rounding-level
changes (1 vs 2 BLAS threads shift energies by ~1e-14; LAPACK ``eigh`` in
place of the Jacobi solver shifts E0 by <1e-12 and |E - E0| by <1e-9
relative), tight enough that a float32 state fails (it moves them by
9e-5 to 2e-3 relative).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

REFERENCE_RTOL = 1e-7

# sha256 of perfbench/refsim (reference.refsim_digest): the host-speed
# reference must stay exactly as the benchmark defined it.
REFSIM_SHA256 = "0fb2f7217524cb87e2e411bcd425efc76c7ffe32d0c20da4cb3a4982eb6a45b7"
# Seconds of the set-up probe (refsim's Jacobi on the LiH matrix) on the
# host the benchmark was defined on (2 vCPU Xeon, Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31 with 2 threads). The nominal times only fix the scale
# of the reported numbers.
SETUP_NOMINAL_S = 0.012

LIH_INIT = ((math.sqrt(0.99), "110000"), (0.1, "000011"))
ISING_PARAMS = (1.0, 1.2, 0.3)  # J, g, h
NOISE = (1e-5, 1e-5)  # eps_r, eps_d
DT = 0.05  # Trotter step of every workload, order 1


@dataclass(frozen=True)
class Workload:
    model: str  # "lih", "ising" or "h2"
    n_steps: int  # Trotter steps of DT
    reference: tuple[float, float]
    probe_steps: int  # Trotter steps of the reference slice (reference.py)
    probe_nominal_s: float  # its seconds on the host SETUP_NOMINAL_S names
    n_qubits: int = 0  # ising chain length
    grouping: str | None = None  # "lih-22"
    mode: str = "postselect"
    noise: tuple[float, float] | None = None
    max_energy_err: float | None = None


WORKLOADS: dict[str, Workload] = {
    # beta 4; 80 steps x 61 terms = 4880 measurements
    "lih-pauli": Workload(
        model="lih",
        n_steps=80,
        reference=(1.3124687862742235e-05, 4.32677706548813e-05),
        probe_steps=8,
        probe_nominal_s=0.110,
        max_energy_err=1e-3,  # acceptance criterion 3a
    ),
    # beta 2; 40 steps x 22 blocks = 880 measurements per completed attempt
    "lih-grouped-sample": Workload(
        model="lih",
        n_steps=40,
        grouping="lih-22",
        mode="sample",
        reference=(4.60814780051777e-04, 1.7791026295490775e-01),
        probe_steps=8,
        probe_nominal_s=0.080,
    ),
    # beta 1; 20 steps x 61 terms = 1220 measurements on a 7-qubit density matrix
    "lih-noisy": Workload(
        model="lih",
        n_steps=20,
        noise=NOISE,
        reference=(9.851072043531417e-03, 7.967523787171235e-02),
        probe_steps=4,
        probe_nominal_s=0.960,
    ),
    # beta 0.5; 10 steps x 24 terms = 240 measurements on a 9-qubit density matrix
    "ising8-noisy": Workload(
        model="ising",
        n_qubits=8,
        n_steps=10,
        noise=NOISE,
        reference=(1.514136539943678e-02, 8.895518156085863e-04),
        probe_steps=1,
        probe_nominal_s=0.190,
    ),
    # Harness self-test only (run.py --self-test): H2 at R=0.75, seconds long.
    "h2": Workload(
        model="h2",
        n_steps=40,
        reference=(3.0068281486883564e-07, 4.7482500797198374e-01),
        probe_steps=40,
        probe_nominal_s=0.012,
        max_energy_err=1e-4,  # acceptance criterion 1
    ),
}


def model_and_init(w: Workload, hamiltonian):
    """The workload's Hamiltonian and initial state, built with the given
    ``hamiltonian`` module (pite_sim's or refsim's)."""
    if w.model == "lih":
        h = hamiltonian.build_lih()
        spec = hamiltonian.InitialState.superposition(list(LIH_INIT))
    elif w.model == "ising":
        h = hamiltonian.build_ising(w.n_qubits, *ISING_PARAMS)
        spec = hamiltonian.InitialState.product(ising_params=ISING_PARAMS)
    else:
        h = hamiltonian.build_h2(0.75)
        spec = hamiltonian.InitialState.basis("00")
    return h, hamiltonian.prepare_initial(spec, h.n_qubits)
