"""Exact-diagonalization oracle and closed-form convergence/probability bounds.

The oracle is LAPACK's dense Hermitian eigensolver (``numpy.linalg.eigh``)
applied to the Hamiltonian's dense matrix. Everything downstream of it --
spectra, fidelity bounds, success-probability bounds, exact imaginary-time
traces -- is a pure function of that matrix.

Bound conventions: the identity offset of a Hamiltonian is excluded from
the ground energy and from sum |c_k| wherever they appear inside bound
formulas, but reported energies always include it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hamiltonian import PauliHamiltonian

__all__ = [
    "OracleCapacityError",
    "eigensystem",
    "SpectrumInfo",
    "diagonalize",
    "exact_ite_state",
    "exact_ite_trace",
    "fidelity_bound",
    "rlb",
    "alb",
    "alb_generalized",
    "kappa_exponents",
]

_DEGENERACY_TOL = 1e-10
_MAX_ORACLE_QUBITS = 12


@dataclass(frozen=True)
class SpectrumInfo:
    """Exact eigendata of a Hamiltonian plus overlaps of one initial state.

    Energies include the identity offset. ``gap1`` is the first strictly
    positive gap (degenerate ground levels are merged); ``ground_basis``
    spans the full ground subspace and ``s0`` sums the overlaps over it.
    """

    energies: np.ndarray
    ground_basis: np.ndarray
    gap1: float
    gap_max: float
    overlaps: np.ndarray

    @property
    def e0(self) -> float:
        return float(self.energies[0])

    @property
    def ground_degeneracy(self) -> int:
        return self.ground_basis.shape[1]

    @cached_property
    def s0(self) -> float:
        return float(np.sum(self.overlaps[: self.ground_degeneracy]))

    def fidelity_to_ground(self, vec: np.ndarray) -> float:
        """Squared norm of the projection onto the ground subspace."""
        amps = self.ground_basis.conj().T @ vec
        return float(np.real(np.vdot(amps, amps)))


class OracleCapacityError(ValueError):
    """The Hamiltonian is too large for the dense exact oracle."""


@lru_cache(maxsize=8)
def eigensystem(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigendecomposition of a Hamiltonian, offset included.

    Returns (eigenvalues ascending, eigenvectors as columns), both float64
    for the real matrices of the built-in models. Cached per Hamiltonian
    (they are hashable value objects), so both arrays are read-only.
    """
    if h.n_qubits > _MAX_ORACLE_QUBITS:
        raise OracleCapacityError(
            f"dense diagonalization limited to {_MAX_ORACLE_QUBITS} qubits, got {h.n_qubits}"
        )
    energies, vectors = np.linalg.eigh(h.dense_matrix(include_offset=True))
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return energies, vectors


def diagonalize(h: PauliHamiltonian, init: np.ndarray) -> SpectrumInfo:
    """Exact spectrum of ``h`` and overlaps of ``init`` with its eigenbasis."""
    energies, vectors = eigensystem(h)
    init = np.asarray(init, dtype=complex).ravel()
    if init.shape[0] != 2**h.n_qubits:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    amps = vectors.conj().T @ init
    overlaps = np.abs(amps) ** 2
    n_ground = int(np.sum(energies - energies[0] <= _DEGENERACY_TOL))
    gaps = energies - energies[0]
    positive = gaps[gaps > _DEGENERACY_TOL]
    gap1 = float(positive[0]) if positive.size else 0.0
    return SpectrumInfo(
        energies=energies,
        ground_basis=np.ascontiguousarray(vectors[:, :n_ground]),
        gap1=gap1,
        gap_max=float(gaps[-1]),
        overlaps=overlaps,
    )


def exact_ite_state(
    h: PauliHamiltonian,
    init: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Normalized e^{-beta H} |init>, evaluated in the exact eigenbasis."""
    energies, vectors = eigensystem(h)
    amps = vectors.conj().T @ np.asarray(init, dtype=complex).ravel()
    # shift by E0 before exponentiating so large beta stays finite
    weights = np.exp(-beta * (energies - energies[0]))
    out = vectors @ (weights * amps)
    norm = np.linalg.norm(out)
    if norm < 1e-300:
        raise ValueError("exact ITE annihilated the state (zero ground overlap)")
    return out / norm


def exact_ite_trace(
    h: PauliHamiltonian, init: np.ndarray, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Energies and ground-state fidelities of exact ITE at each beta."""
    spec = diagonalize(h, init)
    hmat = h.dense_matrix(include_offset=True)
    energies, fidelities = [], []
    for beta in betas:
        vec = exact_ite_state(h, init, float(beta))
        energies.append(float(np.real(np.vdot(vec, hmat @ vec))))
        fidelities.append(spec.fidelity_to_ground(vec))
    return np.asarray(energies), np.asarray(fidelities)


def fidelity_bound(s0: float, gap1: float, beta: float) -> float:
    """Lower bound s0 / (s0 + (1-s0) e^{-2 beta gap1}) on ground fidelity."""
    if not 0.0 < s0 <= 1.0:
        raise ValueError(f"initial fidelity s0 must be in (0, 1], got {s0}")
    if gap1 < 0.0:
        raise ValueError("gap1 must be nonnegative")
    return s0 / (s0 + (1.0 - s0) * math.exp(-2.0 * beta * gap1))


def rlb(h: PauliHamiltonian, beta: float) -> float:
    """Rigorous lower bound exp(-4 beta sum|c_k|) on success probability."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return math.exp(-4.0 * beta * h.abs_coeff_sum)


def alb(h: PauliHamiltonian, spectrum: SpectrumInfo, beta: float) -> float:
    """Approximate lower bound on success probability (diagnostic estimate,
    not a strict bound):

        exp[-2 beta (E_G + sum|c_k|)
            - (1-s0) Omega_max / (s0 Omega_1) * (1 - e^{-2 beta Omega_1})]

    with E_G the ground energy excluding the identity offset.
    """
    return alb_generalized(h, -h.abs_coeff_sum, spectrum, beta)


def alb_generalized(
    h: PauliHamiltonian,
    block_minima_sum: float,
    spectrum: SpectrumInfo,
    beta: float,
) -> float:
    """ALB for a grouped decomposition, parameterized by sum_k lambda[k]_0.

    Reduces to :func:`alb` when each block is a single Pauli term, where
    lambda[k]_0 = -|c_k|.
    """
    s0 = spectrum.s0
    if s0 <= 0.0:
        raise ValueError("ALB undefined for zero initial ground overlap")
    e_ground = spectrum.e0 - h.identity_offset
    decay = -2.0 * beta * (e_ground - block_minima_sum)
    if spectrum.gap1 > 0.0:
        relax = (1.0 - s0) * spectrum.gap_max / (s0 * spectrum.gap1)
        decay -= relax * (1.0 - math.exp(-2.0 * beta * spectrum.gap1))
    return math.exp(decay)


def kappa_exponents(
    h: PauliHamiltonian, spectrum: SpectrumInfo
) -> tuple[float, float]:
    """Scale-invariant exponents relating success probability to output
    error: P_RLB = O((eps/(1-eps))^kappa0), P_ALB = O((eps/(1-eps))^kappa1),
    with kappa0 = 2 sum|c_k| / Omega_1 and
    kappa1 = (E_G + sum|c_k|) / Omega_1 (E_G excludes the identity offset).
    """
    if spectrum.gap1 <= 0.0:
        raise ValueError("kappa exponents need a strictly positive first gap")
    e_ground = spectrum.e0 - h.identity_offset
    kappa0 = 2.0 * h.abs_coeff_sum / spectrum.gap1
    kappa1 = (e_ground + h.abs_coeff_sum) / spectrum.gap1
    return kappa0, kappa1
