"""Test oracles: dense matrices and closed forms built from definitions.

Nothing here runs the kernels that evolve states (``pite_sim.engine``'s
pair kernels and fused products), so the tests compare those fast paths
against arrays built independently: Kronecker products of 2x2 Pauli
matrices, per-qubit ``np.tensordot`` contractions and gate matrices
written out from the gate definitions, a noiseless postselected run
as the product of its circuits' dense post-selected operators, and a
noisy density-matrix run as its circuits' dense Kraus sums in turn. The
elementary-gate Ising block circuit and its closed forms live here too,
as references for the grouped step built from a dense eigenbasis, with
the rewrite of its work-register rotations into the dense blocks the
engine lowers. So do the builds of the folded noise channel that the
engine's per-site builds replaced, as their bitwise references: the
``np.kron`` chain of its per-qubit factors, the channel kernel (passed
in, the one kernel run here) on the identity taken into site-pair order,
and the adjoint diagonals updated one (X mask, qubit) pair at a time.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from pite_sim.circuit import (
    CNOT,
    Circuit,
    ConditionalRy,
    ControlledRy,
    DenseBlock,
    Gate,
    Hadamard,
    PauliX,
    PhaseS,
    PhaseSdg,
    Ry,
    adjoint_sequence,
    check_time,
)
from pite_sim.grouping import GroupSpec
from pite_sim.hamiltonian import PauliAxis, PauliHamiltonian, PauliTerm

PAULI_MATRICES = {
    PauliAxis.I: np.eye(2, dtype=complex),
    PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def term_matrix(term: PauliTerm) -> np.ndarray:
    """Full 2^n x 2^n matrix of coeff * (P_1 x ... x P_n)."""
    m = np.array([[term.coeff]], dtype=complex)
    for a in term.axes:
        m = np.kron(m, PAULI_MATRICES[a])
    return m


def pivot_z_matrix(coeff: float, n: int, pivot: int) -> np.ndarray:
    """-|coeff| Z on ``pivot``, what a term's basis change folds it onto."""
    axes = tuple(PauliAxis.Z if q == pivot else PauliAxis.I for q in range(n))
    return term_matrix(PauliTerm(-abs(coeff), axes))


def apply_pauli(axes: tuple[PauliAxis, ...], psi: np.ndarray) -> np.ndarray:
    """P |psi> for a Pauli string, one ``np.tensordot`` per non-identity
    qubit (qubit 0 the most significant bit)."""
    n = len(axes)
    out = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for q, axis in enumerate(axes):
        if axis is not PauliAxis.I:
            out = np.moveaxis(np.tensordot(PAULI_MATRICES[axis], out, axes=(1, q)), 0, q)
    return out.reshape(-1)


def dense_step_oracle(term: PauliTerm, dt: float, state: np.ndarray) -> np.ndarray:
    """Closed-form normalized action of e^{-c h dt} on a statevector.

    Uses the two-eigenvalue structure of a Pauli string:
    e^{-c h dt} = cosh(|c| dt) I - sinh(|c| dt) (c h / |c|).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    psi = np.asarray(state, dtype=complex)
    x = abs(term.coeff) * dt
    sign = 1.0 if term.coeff > 0 else -1.0
    out = math.cosh(x) * psi - math.sinh(x) * sign * apply_pauli(term.axes, psi)
    return out / np.linalg.norm(out)


def gate_matrix(gate: Gate) -> tuple[np.ndarray, tuple[int, ...]]:
    """A gate's matrix built from its definition, and the qubits it acts
    on (first listed qubit = most significant bit of the matrix index)."""

    def ry(angle: float) -> np.ndarray:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]])

    def controlled(n_control: int, branches: dict[int, np.ndarray]) -> np.ndarray:
        """sum_x |x><x| (x) branches[x] over the control register, with
        the identity on the target for control states not listed."""
        out = np.eye(2 ** (n_control + 1), dtype=complex)
        for x, block in branches.items():
            out[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] = block
        return out

    if isinstance(gate, Hadamard):
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), (gate.qubit,)
    if isinstance(gate, PhaseS):
        return np.diag([1.0, 1j]), (gate.qubit,)
    if isinstance(gate, PhaseSdg):
        return np.diag([1.0, -1j]), (gate.qubit,)
    if isinstance(gate, PauliX):
        return np.array([[0.0, 1.0], [1.0, 0.0]]), (gate.qubit,)
    if isinstance(gate, Ry):
        return ry(gate.angle), (gate.qubit,)
    if isinstance(gate, CNOT):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        return controlled(1, {1: x}), (gate.control, gate.target)
    if isinstance(gate, ControlledRy):
        return controlled(1, {1: ry(gate.angle)}), (gate.control, gate.target)
    if isinstance(gate, ConditionalRy):
        branches = {x: ry(angle) for x, angle in gate.angles}
        return controlled(len(gate.register), branches), (*gate.register, gate.target)
    if isinstance(gate, DenseBlock):
        return gate.matrix, gate.qubits
    raise TypeError(f"unknown gate {gate!r}")


def gates_unitary(gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    """Dense unitary of a gate sequence: each gate's :func:`gate_matrix`
    contracted into the running unitary with ``np.tensordot``."""
    dim = 2**n_qubits
    if n_qubits > 12:
        raise ValueError("dense unitary limited to 12 qubits")
    mat = np.eye(dim, dtype=complex)
    for g in gates:
        m, qubits = gate_matrix(g)
        k = len(qubits)
        rows = mat.reshape((2,) * n_qubits + (dim,))
        out = np.tensordot(m.reshape((2,) * (2 * k)), rows, axes=(range(k, 2 * k), qubits))
        mat = np.moveaxis(out, range(k), qubits).reshape(dim, dim)
    return mat


def with_dense_work_rotations(circuit: Circuit) -> Circuit:
    """``circuit`` with each y-rotation that does not target the ancilla
    replaced by a ``DenseBlock`` of its :func:`gate_matrix`: the form the
    engine lowers, whose kernels run no rotation (the ancilla's rotation
    is folded into the step's diagonal factors and stays as it is)."""
    gates = []
    for g in circuit.gates:
        m, qubits = gate_matrix(g)
        rotates_work = isinstance(g, (Ry, ControlledRy, ConditionalRy)) and qubits[-1] != circuit.ancilla
        gates.append(DenseBlock(qubits, m) if rotates_work else g)
    return dataclasses.replace(circuit, gates=tuple(gates))


def postselected_operator(circuit: Circuit) -> np.ndarray:
    """Unnormalized work-register operator of the ancilla-0 branch.

    Valid because gates after the measurement never touch the ancilla, so
    projecting the ancilla commutes with them; the result is the top-left
    ancilla block of the full-circuit unitary.
    """
    full = gates_unitary(circuit.gates, circuit.n_qubits)
    return full[0::2, 0::2].copy()  # ancilla is the least significant bit


def _hamiltonian_and_ground(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """H as the sum of the terms' :func:`term_matrix` and the identity
    offset, and the eigenvectors of H within 1e-10 of its lowest
    eigenvalue, as columns."""
    dim = 2**h.n_qubits
    hmat = sum((term_matrix(t) for t in h.terms), h.identity_offset * np.eye(dim))
    energies, vectors = np.linalg.eigh(hmat)
    return hmat, vectors[:, energies - energies[0] <= 1e-10]


def postselected_run(
    h: PauliHamiltonian, circuits: list[Circuit], init: np.ndarray, n_steps: int
) -> list[tuple[float, float, float]]:
    """(energy, fidelity, p_cum) at beta 0 and after each of ``n_steps``
    Trotter steps, from ``init`` and M = K_L ... K_1, the product of the
    :func:`postselected_operator` K_i of ``circuits``, one Trotter step's
    circuits in the order they run. The state M^t init is never
    normalized: p_cum is its squared norm (``init`` has unit norm), and
    the energy and the fidelity are read over it. H is the sum of the
    terms' :func:`term_matrix` and the identity offset; the fidelity is
    the weight on the eigenvectors of H within 1e-10 of its lowest
    eigenvalue."""
    dim = 2**h.n_qubits
    hmat, ground = _hamiltonian_and_ground(h)
    m = np.eye(dim)
    for circuit in circuits:
        m = postselected_operator(circuit) @ m
    psi, records = np.asarray(init, dtype=complex), []
    for _ in range(n_steps + 1):
        weight = float(np.vdot(psi, psi).real)
        energy = float(np.vdot(psi, hmat @ psi).real) / weight
        fidelity = float(np.linalg.norm(ground.conj().T @ psi) ** 2) / weight
        records.append((energy, fidelity, weight))
        psi = m @ psi
    return records


def kraus_step(circuit: Circuit, rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """One noisy step circuit on the work-register matrix ``rho``, its
    ancilla-0 branch left unnormalized (its trace is prob0 times that of
    ``rho``): ``rho`` (x) |0><0| on the work register and the ancilla (the
    least significant bit), the gates up to the measurement on both sides
    (:func:`gates_unitary`), the channel of the Kraus operators ``kraus``
    on every qubit, ancilla included (:func:`kraus_channel`), the ancilla-0
    block, then the gates after the measurement on both sides."""
    n = circuit.n_qubits
    full = np.kron(rho, np.diag([1.0, 0.0]))
    pre = gates_unitary(circuit.pre_measure, n)
    branch = kraus_channel(pre @ full @ pre.conj().T, kraus)[0::2, 0::2]
    post = gates_unitary(circuit.post_measure, n)[0::2, 0::2]
    return post @ branch @ post.conj().T


def noisy_run(
    h: PauliHamiltonian, circuits: list[Circuit], init: np.ndarray, n_steps: int, kraus
) -> list[tuple[float, float, float]]:
    """The records of :func:`postselected_run` for a noisy density-matrix
    run, whose channel has the Kraus operators ``kraus``: from
    |init><init|, each of ``circuits`` (one Trotter step's, in the order
    they run) as one :func:`kraus_step`, ``n_steps`` times over. The
    matrix is never normalized: p_cum is its trace, and the energy and
    the fidelity are read over it."""
    hmat, ground = _hamiltonian_and_ground(h)
    rho = np.outer(init, np.conj(init))
    records = []
    for step in range(n_steps + 1):
        if step:
            for circuit in circuits:
                rho = kraus_step(circuit, rho, kraus)
        weight = float(np.trace(rho).real)
        energy = float(np.trace(hmat @ rho).real) / weight
        fidelity = float(np.trace(ground.conj().T @ rho @ ground).real) / weight
        records.append((energy, fidelity, weight))
    return records


def singleton_groupspec(n_terms: int) -> GroupSpec:
    """One group per term: grouped evolution that must equal per-term."""
    return GroupSpec(tuple((k,) for k in range(1, n_terms + 1)))


def on_register(matrix: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """``matrix`` on ``support`` (first listed qubit most significant) as a
    2^n x 2^n operator, the identity on the other qubits."""
    order = [*support, *(q for q in range(n) if q not in support)]
    full = np.kron(matrix, np.eye(2 ** (n - len(support)))).reshape((2,) * (2 * n))
    perm = [order.index(q) for q in range(n)]
    return full.transpose(perm + [n + p for p in perm]).reshape(2**n, 2**n)


def kraus_channel(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """The single-qubit channel sum_E E rho E^dag on every qubit in turn,
    each Kraus operator E put on its qubit by :func:`on_register`."""
    n = rho.shape[0].bit_length() - 1
    for q in range(n):
        ops = [on_register(e, (q,), n) for e in kraus]
        rho = sum(op @ rho @ op.conj().T for op in ops)
    return rho


def kron_channel_factors(model, counts: tuple[int, ...]) -> tuple[tuple[float, ...], np.ndarray]:
    """The channel of ``model`` (any object with ``eps_r`` and ``eps_d``)
    applied counts[i] times to qubit i, folded per qubit: the jump weights
    eps_d (1 + keep + ... + keep^(m-1)) and the elementwise factor over
    (row bits, column bits), one ``np.kron`` per qubit of
    [[1, delta^m], [delta^m, keep^m]], keep = 1 - eps_d and
    delta = sqrt(1 - eps_r - eps_d)."""
    keep = 1.0 - model.eps_d
    damp = math.sqrt(1.0 - model.eps_r - model.eps_d)
    jumps = tuple(model.eps_d * sum(keep**j for j in range(m)) for m in counts)
    factor = np.ones((1, 1))
    for m in counts:
        factor = np.kron(factor, [[1.0, damp**m], [damp**m, keep**m]])
    return jumps, factor


def identity_channel_superop(channel, model, counts: tuple[int, ...]) -> np.ndarray:
    """The 4^k x 4^k matrix of the folded channel on k = len(counts)
    qubits in site-pair order (r0 c0 r1 c1 ...): ``channel(buffer, model,
    counts, columns=k)``, an in-place kernel on a buffer whose leading
    bits are the k row bits and then the k column bits, run on the 4^k
    identity columns in row-major vec order, then both sides permuted
    into site-pair order."""
    k = len(counts)
    superop = np.eye(4**k)
    channel(superop, model, counts, columns=k)
    vec = np.arange(4**k).reshape((2,) * (2 * k))
    pairs = vec.transpose([a for q in range(k) for a in (q, k + q)]).reshape(-1)
    return superop[np.ix_(pairs, pairs)]


def adjoint_diagonals_loop(h: PauliHamiltonian, model, counts: tuple[int, ...]) -> np.ndarray:
    """The X-mask diagonals of N^dag(H), N ``model``'s channel applied
    counts[q] times to qubit q, one X mask and one qubit at a time: a
    qubit in the mask scales its diagonal by delta^m, any other sets
    d[b_q = 1] to keep^m d[b_q = 1] + jump d[b_q = 0]
    (:func:`kron_channel_factors`)."""
    n = h.n_qubits
    masks, _, stack = h.x_mask_stack
    stack = stack.copy()
    for x_mask, d in zip(masks.tolist(), stack):
        for q, m in enumerate(counts):
            if m:
                (jump,), factor = kron_channel_factors(model, (m,))
                if (x_mask >> (n - 1 - q)) & 1:
                    d *= factor[0, 1]
                else:
                    half = d.reshape(2**q, 2, -1)
                    half[:, 1] *= factor[1, 1]
                    half[:, 1] += jump * half[:, 0]
    return stack


def ising_block_eigenvalues(g: float, h: float, J: float = 1.0) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues of the local Ising block
    -J (Z_k Z_{k+1} + g X_k + h Z_k):

        lambda_{0,3} = -+ J sqrt(g^2 + (h+1)^2)
        lambda_{1,2} = -+ J sqrt(g^2 + (h-1)^2)
    """
    r_plus = abs(J) * np.hypot(g, h + 1.0)
    r_minus = abs(J) * np.hypot(g, h - 1.0)
    return (-r_plus, -r_minus, r_minus, r_plus)


def ising_block_angles(g: float, h: float) -> tuple[float, float]:
    """Closed-form rotation angles of the two-site Ising block:

        phi1 = arccos((1-h) / sqrt(g^2 + (h-1)^2))
        phi2 = arccos((-1-h) / sqrt(g^2 + (h+1)^2))
    """
    r_minus = math.hypot(g, h - 1.0)
    r_plus = math.hypot(g, h + 1.0)
    if r_minus == 0.0 or r_plus == 0.0:
        raise ValueError("block angles undefined at the degenerate point g=0, h=-+1")
    phi1 = math.acos((1.0 - h) / r_minus)
    phi2 = math.acos((-1.0 - h) / r_plus)
    return phi1, phi2


def build_ising_block_gates(g: float, h: float, dt: float) -> Circuit:
    """Elementary-gate step circuit for the two-site Ising block

        B = -(Z0 Z1 + g X0 + h Z0)

    on work qubits (0, 1) plus the ancilla (J = 1 form). The eigenbasis
    change needs one Ry, one controlled-Ry and one CNOT; the ancilla
    rotation splits into two controlled-Ry gates plus a two-qubit
    conditional branch. Dense-equivalent to ``build_grouped_step`` on the
    same block up to a global phase on the post-selected branch.
    """
    check_time("dt", dt)
    # B is block-diagonal in qubit 1: on the qubit-1=0 (resp. 1) subspace it
    # is -r_a (cos a_a Z + sin a_a X) on qubit 0, with the angles below.
    alpha_a = math.atan2(g, 1.0 + h)
    alpha_b = math.atan2(g, h - 1.0)
    r_a = math.hypot(g, 1.0 + h)
    r_b = math.hypot(g, h - 1.0)
    # eigenvalues hosted by register states 00, 01, 11, 10 after the basis
    # change; anchor the rotation angles at the global minimum
    by_state = {0b00: -r_a, 0b01: -r_b, 0b11: r_a, 0b10: r_b}
    lam0 = min(by_state.values())
    theta = {x: 2.0 * math.acos(math.exp(-(lam - lam0) * dt)) for x, lam in by_state.items()}

    basis_change = (
        Ry(-alpha_a, 0),
        ControlledRy(alpha_a - alpha_b, 1, 0),
        CNOT(0, 1),
    )
    ancilla = 2
    rotation: list[Gate] = []
    if theta[0b00] != 0.0:
        rotation.append(Ry(theta[0b00], ancilla))
    t10 = theta[0b10] - theta[0b00]
    t01 = theta[0b01] - theta[0b00]
    if t10 != 0.0:
        rotation.append(ControlledRy(t10, 0, ancilla))
    if t01 != 0.0:
        rotation.append(ControlledRy(t01, 1, ancilla))
    t11 = theta[0b11] - theta[0b00] - t10 - t01
    if t11 != 0.0:
        rotation.append(ConditionalRy.from_map((0, 1), {0b11: t11}, ancilla))
    gates = (*basis_change, *rotation, *adjoint_sequence(basis_change))
    return Circuit(
        n_work=2,
        has_ancilla=True,
        gates=gates,
        measure_point=len(basis_change) + len(rotation),
    )
