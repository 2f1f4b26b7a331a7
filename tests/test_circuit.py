"""Tests for gate types and step-circuit synthesis."""
import math

import numpy as np
import pytest

from pite_sim.circuit import (
    CNOT,
    Circuit,
    ConditionalRy,
    ControlledRy,
    DenseBlock,
    Hadamard,
    PauliX,
    PhaseS,
    PhaseSdg,
    Ry,
    adjoint,
    adjoint_sequence,
    build_grouped_step,
    build_pauli_step,
    gate_count,
    synthesize_uk,
    theta_for_coeff,
)
from pite_sim.grouping import GroupedBlock
from pite_sim.hamiltonian import PauliAxis, PauliTerm
from oracles import (
    build_ising_block_gates,
    gates_unitary,
    ising_block_angles,
    ising_block_eigenvalues,
    pivot_z_matrix,
    term_matrix,
)

rng = np.random.default_rng(77)
AXES_POOL = [PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Z]


def random_term(n: int) -> PauliTerm:
    while True:
        axes = tuple(AXES_POOL[i] for i in rng.integers(0, 4, size=n))
        if any(a is not PauliAxis.I for a in axes):
            break
    coeff = 0.0
    while coeff == 0.0:
        coeff = float(rng.uniform(-2.0, 2.0))
    return PauliTerm(coeff, axes)


def test_uk_trivial_negative_z():
    syn = synthesize_uk(PauliTerm.from_string(-1.0, "Z"))
    assert syn.gates == ()
    assert syn.pivot == 0
    assert len(syn.gates) == 0


def test_uk_positive_z_needs_flip():
    syn = synthesize_uk(PauliTerm.from_string(1.0, "Z"))
    assert syn.gates == (PauliX(0),)


def test_uk_xx_example():
    syn = synthesize_uk(PauliTerm.from_string(-0.3, "XX"))
    assert syn.gates == (Hadamard(0), Hadamard(1), CNOT(1, 0))
    assert syn.pivot == 0
    u = gates_unitary(syn.gates, 2)
    ch = term_matrix(PauliTerm.from_string(-0.3, "XX"))
    assert np.abs(u @ ch @ u.conj().T - pivot_z_matrix(-0.3, 2, 0)).max() < 1e-12


@pytest.mark.parametrize("trial", range(40))
def test_uk_conjugation_identity_random(trial):
    n = int(rng.integers(1, 9))
    term = random_term(n)
    syn = synthesize_uk(term)
    assert len(syn.gates) <= 3 * n
    u = gates_unitary(syn.gates, n)
    lhs = u @ term_matrix(term) @ u.conj().T
    assert np.abs(lhs - pivot_z_matrix(term.coeff, n, syn.pivot)).max() < 1e-10


def test_uk_full_y_string_gate_budget():
    term = PauliTerm.from_string(-1.0, "YYYY")
    syn = synthesize_uk(term)
    counts = gate_count(Circuit(n_work=4, has_ancilla=False, gates=syn.gates))
    assert counts["phasesdg"] == 4
    assert counts["hadamard"] == 4
    assert counts["cnot"] == 3
    assert len(syn.gates) == 11  # 2n + (n-1), no sign flip
    positive = PauliTerm.from_string(1.0, "YYYY")
    assert len(synthesize_uk(positive).gates) == 12  # 3n with the flip


def test_theta_for_coeff():
    assert theta_for_coeff(0.0, 0.1) == 0.0
    assert theta_for_coeff(1e9, 1.0) == pytest.approx(math.pi, abs=1e-6)
    theta = theta_for_coeff(-0.388748, 0.1)
    # invert cos(theta/2) = e^{-2|c|dt}
    assert math.cos(theta / 2.0) == pytest.approx(math.exp(-0.0777496), rel=1e-12)
    assert theta == pytest.approx(0.7785, abs=5e-4)
    assert 0.0 <= theta < math.pi
    with pytest.raises(ValueError):
        theta_for_coeff(1.0, 0.0)


def test_build_pauli_step_shapes():
    # pivot-only term: no basis change at all
    circ = build_pauli_step(PauliTerm.from_string(-1.0, "Z"), 0.1)
    assert len(circ.gates) == 1
    assert isinstance(circ.gates[0], ControlledRy)
    assert circ.gates[0].angle == pytest.approx(2 * math.acos(math.exp(-0.2)))
    assert circ.measure_point == 1
    # negative XX term: 3 + 1 + 3 gates
    circ = build_pauli_step(PauliTerm.from_string(-0.3, "XX"), 0.2)
    assert len(circ.gates) == 7
    assert circ.measure_point == 4
    assert circ.gates[3] == ControlledRy(theta_for_coeff(-0.3, 0.2), 0, 2)
    # a positive coefficient adds the sign-flip X on each side
    circ = build_pauli_step(PauliTerm.from_string(0.181771, "XX"), 0.2)
    assert len(circ.gates) == 9
    assert circ.measure_point == 5


def test_step_fixed_point_probability_one():
    # eigenvector of c h with eigenvalue -|c| is untouched, prob0 = 1
    from pite_sim.engine import StateVector, lower_step, run_step_circuit

    term = PauliTerm.from_string(0.7, "ZZ")
    # ground subspace of +0.7 ZZ has eigenvalue -0.7: odd-parity states
    work = np.zeros(4, dtype=complex)
    work[0b01] = 1.0
    state = StateVector(2, work)
    res = run_step_circuit(state, lower_step(build_pauli_step(term, 0.3), state))
    assert res == pytest.approx(1.0, abs=1e-12)
    assert np.abs(state.data - work).max() < 1e-12


def test_every_gate_carries_its_qubits_in_matrix_order():
    """Each of the nine gate kinds carries ``qubits``, the qubits it acts
    on in the order its matrix lists them: a control before its target,
    a conditional rotation's register in order and then its target."""
    block = DenseBlock((3, 0, 2), np.eye(8))
    expected = [
        (Hadamard(4), (4,)),
        (PhaseS(1), (1,)),
        (PhaseSdg(2), (2,)),
        (PauliX(0), (0,)),
        (CNOT(3, 1), (3, 1)),
        (Ry(0.3, 5), (5,)),
        (ControlledRy(0.7, 2, 0), (2, 0)),
        (ConditionalRy((4, 1, 3), ((5, 0.5),), 2), (4, 1, 3, 2)),
        (block, (3, 0, 2)),
    ]
    assert len({type(g) for g, _ in expected}) == 9
    for gate, qubits in expected:
        assert gate.qubits == qubits, gate


def test_circuit_validation():
    """Each validation error, with its message: a measure_point missing,
    out of range on either side, or without an ancilla; a qubit outside
    the register, before the measurement (the ancilla is in it) and
    after it (where the ancilla is not), negative ones too; and a gate
    after the measurement on the ancilla, whichever of its qubits that
    is."""
    def raises(message: str, **fields) -> None:
        with pytest.raises(ValueError) as raised:
            Circuit(**fields)
        assert str(raised.value) == message

    raises("ancilla circuits must declare a measure_point", n_work=2, has_ancilla=True, gates=())
    for point in (-1, 2):
        raises("measure_point out of range",
               n_work=1, has_ancilla=True, gates=(Hadamard(0),), measure_point=point)
    raises("measure_point requires an ancilla",
           n_work=1, has_ancilla=False, gates=(), measure_point=0)
    after = "gates after the measurement must not touch the ancilla"
    raises(after, n_work=1, has_ancilla=True, gates=(Hadamard(1),), measure_point=0)
    raises(after, n_work=2, has_ancilla=True, measure_point=1,
           gates=(ControlledRy(0.3, 0, 2), CNOT(2, 1)))
    raises("gate Hadamard(qubit=3) touches qubit 3, register has 1",
           n_work=1, has_ancilla=False, gates=(Hadamard(3),))
    raises("gate Hadamard(qubit=1) touches qubit 1, register has 1",
           n_work=1, has_ancilla=False, gates=(Hadamard(1),))
    raises("gate CNOT(control=-1, target=0) touches qubit -1, register has 3",
           n_work=2, has_ancilla=True, gates=(CNOT(-1, 0),), measure_point=1)
    raises("gate PauliX(qubit=3) touches qubit 3, register has 3",
           n_work=2, has_ancilla=True, gates=(PauliX(3),), measure_point=1)
    raises("gate PauliX(qubit=4) touches qubit 4, register has 3",
           n_work=2, has_ancilla=True, gates=(PauliX(4),), measure_point=0)
    # the ancilla before the measurement, and every work qubit after it, pass
    Circuit(n_work=2, has_ancilla=True, measure_point=1,
            gates=(ControlledRy(0.3, 1, 2), CNOT(0, 1)))


def test_adjoint_round_trip():
    gates = (
        Hadamard(0),
        PhaseS(1),
        PhaseSdg(0),
        PauliX(2),
        CNOT(0, 1),
        Ry(0.3, 2),
        ControlledRy(0.7, 0, 2),
        ConditionalRy((0, 1), ((2, 0.5),), 2),
        DenseBlock((0, 1), np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))),
    )
    u = gates_unitary(gates, 3)
    u_dag = gates_unitary(adjoint_sequence(gates), 3)
    assert np.abs(u @ u_dag - np.eye(8)).max() < 1e-12
    for g in gates:
        assert np.abs(
            gates_unitary((g, adjoint(g)), 3) - np.eye(8)
        ).max() < 1e-12


def test_dense_block_adjoint_keeps_the_validated_matrix():
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    block = DenseBlock((0, 2), q)
    inverse = block.adjoint()
    assert inverse.qubits == (0, 2)
    assert np.array_equal(inverse.matrix, q.conj().T)
    assert np.array_equal(inverse.adjoint().matrix, block.matrix)


def test_dense_blocks_compare_by_qubits_and_matrix():
    """Two adjoints of one block are equal gates (so a grouped step's Post
    equals ``adjoint_sequence`` of its Pre) and hash alike; a block on
    other qubits, or with another matrix, is another gate, as is any gate
    of another kind."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    block = DenseBlock((0, 2), q)
    assert block.adjoint() == block.adjoint() and block.adjoint() is not block.adjoint()
    assert hash(block.adjoint()) == hash(block.adjoint())
    assert (block,) == adjoint_sequence((block.adjoint(),))
    assert block != DenseBlock((2, 0), q) and block != block.adjoint()
    assert block != DenseBlock((0, 2), q * 1j) and block != CNOT(0, 2)


def test_dense_block_validation():
    with pytest.raises(ValueError, match="unitary"):
        DenseBlock((0,), np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="shape"):
        DenseBlock((0, 1), np.eye(2))


def test_dense_block_rejects_a_nan_matrix():
    # NaN must fail the unitarity tolerance, not compare as within it
    with pytest.raises(ValueError, match="not unitary"):
        DenseBlock((0,), np.full((2, 2), np.nan))


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_step_builders_reject_a_step_that_is_not_positive_and_finite(dt):
    # one check for every builder: NaN and inf are not positive and finite
    builders = [
        lambda: build_pauli_step(PauliTerm.from_string(0.5, "XZ"), dt),
        lambda: build_grouped_step(GroupedBlock(1, (0,), np.diag([1.0, -1.0])), dt),
        lambda: build_ising_block_gates(1.2, 0.3, dt),
        lambda: theta_for_coeff(0.5, dt),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            build()


def test_conditional_ry_validation():
    with pytest.raises(ValueError, match="distinct"):
        ConditionalRy((0, 1), ((0, 0.1),), 1)
    with pytest.raises(ValueError, match="out of range"):
        ConditionalRy.from_map((0,), {2: 0.1}, 1)
    gate = ConditionalRy.from_map((0, 1), {1: 0.4, 2: 0.0}, 2)
    assert dict(gate.angles) == {1: 0.4}  # zero-angle branches dropped


def test_ising_block_angles_closed_form():
    phi1, phi2 = ising_block_angles(1.2, 0.3)
    assert phi1 == pytest.approx(math.acos(0.7 / math.sqrt(1.93)), rel=1e-12)
    assert phi1 == pytest.approx(1.0426, abs=2e-4)
    assert phi2 == pytest.approx(math.acos(-1.3 / math.sqrt(3.13)), rel=1e-12)
    with pytest.raises(ValueError):
        ising_block_angles(0.0, -1.0)


def test_ising_block_gate_layout():
    circ = build_ising_block_gates(1.2, 0.3, 0.1)
    counts = gate_count(circ)
    # basis change (Ry + CRy + CNOT) twice, three ancilla rotations
    assert counts["ry"] == 2
    assert counts["cnot"] == 2
    assert counts["controlledry"] == 2 + 2  # basis change pair + two branches
    assert counts["conditionalry"] == 1


def test_degenerate_transverse_block():
    # h=0: lambda0 == lambda1, the 01 branch angle vanishes
    circ = build_ising_block_gates(1.0, 0.0, 0.1)
    branch_angles = [g.angle for g in circ.gates if isinstance(g, ControlledRy)]
    # one basis-change CRy and one nonzero ancilla branch remain
    assert len(branch_angles) == 3
    lam = ising_block_eigenvalues(1.0, 0.0)
    assert lam[0] == pytest.approx(lam[1])


def test_gate_count_empty():
    circ = Circuit(n_work=2, has_ancilla=False, gates=())
    assert all(v == 0 for v in gate_count(circ).values())


def test_trotter_step_gate_budget():
    from pite_sim.hamiltonian import build_lih

    h = build_lih()
    total = 0
    for term in h.terms:
        total += len(build_pauli_step(term, 0.1).gates)
    assert total <= h.n_terms * (6 * h.n_qubits + 1)
