"""Exact-diagonalization oracle and closed-form convergence/probability bounds.

The eigensolver is a self-contained cyclic Jacobi method for Hermitian
matrices (rotations scheduled in round-robin rounds of disjoint pairs so a
whole round is applied as one vectorized update). Everything downstream of
it -- spectra, fidelity bounds, success-probability bounds, exact
imaginary-time traces -- is a pure function of the dense matrix.

Bound conventions: the identity offset of a Hamiltonian is excluded from
the ground energy and from sum |c_k| wherever they appear inside bound
formulas, but reported energies always include it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonian import PauliHamiltonian

__all__ = [
    "jacobi_eigh",
    "SpectrumInfo",
    "diagonalize",
    "exact_ite_state",
    "exact_ite_trace",
    "fidelity_bound",
    "beta_for_error",
    "rlb",
    "alb",
    "alb_generalized",
    "kappa_exponents",
]

_DEGENERACY_TOL = 1e-10
_MAX_ORACLE_QUBITS = 12


def _round_robin_rounds(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round-robin schedule: rounds of disjoint (p, q) pairs covering every
    unordered pair exactly once per sweep."""
    m = d + (d % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < d and b < d:  # index d is the bye when padded
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps), np.asarray(qs)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _off_norm(a: np.ndarray) -> float:
    # computed on a diagonal-zeroed copy: the subtraction-based form
    # sqrt(||A||^2 - ||diag||^2) cancels catastrophically near convergence
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


_SCALAR_LIMIT = 160  # above this, rotate 64-wide index blocks instead of scalars
_BLOCK = 64


def jacobi_eigh(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Rotations are scheduled in round-robin rounds of disjoint pairs and
    applied as one vectorized update per round. Large matrices switch to
    the block-cyclic variant: pairs of 64-wide index blocks are
    diagonalized exactly (by the scalar path) and applied via matrix
    products, which is the same iteration at much lower traffic per round.

    Stops when the off-diagonal Frobenius norm falls below ``tol`` relative
    to the matrix norm. Returns (eigenvalues ascending, eigenvectors as
    columns); real input yields real eigenvectors.
    """
    a = np.array(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    herm_err = np.abs(a - a.conj().T).max(initial=0.0)
    if herm_err > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError(f"matrix is not Hermitian (asymmetry {herm_err:.3e})")
    real_input = np.isrealobj(a) or np.abs(a.imag).max(initial=0.0) == 0.0
    dtype = np.float64 if real_input else np.complex128
    a = a.real.astype(dtype) if real_input else a.astype(dtype)
    v = np.eye(d, dtype=dtype)
    if d == 1 or np.linalg.norm(a) == 0.0:
        return np.real(np.diagonal(a)).copy(), v

    if d <= _SCALAR_LIMIT:
        _scalar_sweeps(a, v, tol, max_sweeps)
    else:
        _block_sweeps(a, v, tol, max_sweeps)

    eigvals = np.real(np.diagonal(a)).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], np.ascontiguousarray(v[:, order])


def _scalar_sweeps(a: np.ndarray, v: np.ndarray, tol: float, max_sweeps: int) -> None:
    d = a.shape[0]
    fro = np.linalg.norm(a)
    stop_off = tol * fro
    # Skipping pairs with |a_pq| <= stop_off/d leaves off(A) <= stop_off.
    skip = stop_off / d
    rounds = _round_robin_rounds(d)
    complex_path = np.iscomplexobj(a)

    sweeps = 0
    while _off_norm(a) > stop_off and sweeps < max_sweeps:
        sweeps += 1
        for p_all, q_all in rounds:
            apq = a[p_all, q_all]
            mag = np.abs(apq)
            active = mag > skip
            if not active.any():
                continue
            p, q, apq, mag = p_all[active], q_all[active], apq[active], mag[active]
            diag = np.real(np.diagonal(a))
            tau = (diag[q] - diag[p]) / (2.0 * mag)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t = np.where(tau == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            u = apq / mag  # phase of the pivot entry; +-1 for real input
            su_c = s * np.conj(u) if complex_path else s * u
            cu_c = c * np.conj(u) if complex_path else c * u
            # A <- A R (columns), then A <- R^H A (rows); disjoint pairs
            # within a round make the gathered updates alias-free.
            cp, cq = a[:, p], a[:, q]
            a[:, p] = cp * c - cq * su_c
            a[:, q] = cp * s + cq * cu_c
            rp, rq = a[p, :], a[q, :]
            a[p, :] = c[:, None] * rp - (s * u)[:, None] * rq
            a[q, :] = s[:, None] * rp + (c * u)[:, None] * rq
            vp, vq = v[:, p], v[:, q]
            v[:, p] = vp * c - vq * su_c
            v[:, q] = vp * s + vq * cu_c


def _block_sweeps(a: np.ndarray, v: np.ndarray, tol: float, max_sweeps: int) -> None:
    d = a.shape[0]
    fro = np.linalg.norm(a)
    stop_off = tol * fro
    blocks = [np.arange(s, min(s + _BLOCK, d)) for s in range(0, d, _BLOCK)]
    nb = len(blocks)
    rounds = _round_robin_rounds(nb)
    skip = stop_off / nb  # sub-block off-norm below this cannot break the stop

    sweeps = 0
    off = _off_norm(a)
    while off > stop_off and sweeps < max_sweeps:
        sweeps += 1
        # Early sweeps solve the pivot subproblems loosely; the tolerance
        # tightens quadratically with the remaining off-diagonal mass.
        rel = off / fro
        sub_tol = max(tol, min(1e-4, rel * rel))
        for p_blocks, q_blocks in rounds:
            for bi, bj in zip(p_blocks, q_blocks):
                ij = np.concatenate([blocks[bi], blocks[bj]])
                sub = a[np.ix_(ij, ij)]
                if _off_norm(sub) <= skip:
                    continue
                _, rot = jacobi_eigh(sub, tol=sub_tol, max_sweeps=max_sweeps)
                rot = rot.astype(a.dtype, copy=False)
                a[ij, :] = rot.conj().T @ a[ij, :]
                a[:, ij] = a[:, ij] @ rot
                v[:, ij] = v[:, ij] @ rot
        off = _off_norm(a)


@dataclass(frozen=True)
class SpectrumInfo:
    """Exact eigendata of a Hamiltonian plus overlaps of one initial state.

    Energies include the identity offset. ``gap1`` is the first strictly
    positive gap (degenerate ground levels are merged); ``ground_basis``
    spans the full ground subspace and ``s0`` sums the overlaps over it.
    """

    energies: np.ndarray
    ground_vector: np.ndarray
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

    @property
    def s0(self) -> float:
        return float(np.sum(self.overlaps[: self.ground_degeneracy]))

    def fidelity_to_ground(self, vec: np.ndarray) -> float:
        """Squared norm of the projection onto the ground subspace."""
        amps = self.ground_basis.conj().T @ vec
        return float(np.real(np.vdot(amps, amps)))

    def ground_projector(self) -> np.ndarray:
        return self.ground_basis @ self.ground_basis.conj().T


@lru_cache(maxsize=8)
def eigensystem(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigendecomposition (Jacobi) of a Hamiltonian, offset included.

    Cached per Hamiltonian (they are hashable value objects); callers must
    treat the returned arrays as read-only.
    """
    if h.n_qubits > _MAX_ORACLE_QUBITS:
        raise ValueError(
            f"dense diagonalization limited to {_MAX_ORACLE_QUBITS} qubits, got {h.n_qubits}"
        )
    return jacobi_eigh(h.dense_matrix(include_offset=True))


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
        ground_vector=np.ascontiguousarray(vectors[:, 0]),
        ground_basis=np.ascontiguousarray(vectors[:, :n_ground]),
        gap1=gap1,
        gap_max=float(gaps[-1]),
        overlaps=overlaps,
    )


def exact_ite_state(
    h: PauliHamiltonian,
    init: np.ndarray,
    beta: float,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Normalized e^{-beta H} |init>, evaluated in the exact eigenbasis."""
    energies, vectors = eig if eig is not None else eigensystem(h)
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
    eig = eigensystem(h)
    spec = diagonalize(h, init)
    hmat = h.dense_matrix(include_offset=True)
    energies, fidelities = [], []
    for beta in betas:
        vec = exact_ite_state(h, init, float(beta), eig=eig)
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


def beta_for_error(eps: float, s0: float, gap1: float) -> float:
    """Smallest beta at which the fidelity bound reaches 1 - eps.

    Closed form: beta * gap1 = (1/2) ln((1-s0)/s0 * (1-eps)/eps); returns 0
    when the bound already satisfies the target at beta = 0.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < s0 < 1.0:
        raise ValueError(f"s0 must be in (0, 1), got {s0}")
    if eps >= 1.0 - s0:
        return 0.0
    if gap1 <= 0.0:
        return math.inf
    return 0.5 * math.log((1.0 - s0) / s0 * (1.0 - eps) / eps) / gap1


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
