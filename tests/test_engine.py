"""Tests for statevector/density-matrix execution, measurement and noise."""
import copy
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import pite_sim.engine as engine
from pite_sim.analysis import eigensystem
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
    adjoint_sequence,
    build_grouped_step,
    build_pauli_step,
)
from pite_sim.engine import (
    DensityMatrix,
    EvolutionAnnihilatedError,
    NoiseModel,
    StateVector,
    lower_step,
    make_rng,
    run_step_circuit,
)
from pite_sim.grouping import GroupedBlock
from pite_sim.hamiltonian import (
    InitialState,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    build_h2,
    build_ising,
    build_lih,
    prepare_initial,
)
from pite_sim.pite import RunConfig, Schedule, run_pite
from oracles import (
    adjoint_diagonals_loop,
    apply_pauli,
    build_ising_block_gates,
    dense_step_oracle,
    gates_unitary,
    identity_channel_superop,
    kraus_channel,
    kron_channel_factors,
    kraus_step,
    on_register,
    postselected_operator,
    term_matrix,
    with_dense_work_rotations,
)

rng = np.random.default_rng(99)
AXES_POOL = [PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Z]


def random_state(n: int, source: np.random.Generator = rng) -> np.ndarray:
    v = source.standard_normal(2**n) + 1j * source.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_term(n: int) -> PauliTerm:
    while True:
        axes = tuple(AXES_POOL[i] for i in rng.integers(0, 4, size=n))
        if any(a is not PauliAxis.I for a in axes):
            break
    coeff = 0.0
    while coeff == 0.0:
        coeff = float(rng.uniform(-1.5, 1.5))
    return PauliTerm(coeff, axes)


def random_unitary(dim: int, source: np.random.Generator = rng) -> np.ndarray:
    m = source.standard_normal((dim, dim)) + 1j * source.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_circuit(state, circ, rng=None, noise=None):
    """Lower ``circ`` for ``state`` and run it once."""
    return run_step_circuit(state, lower_step(circ, state, noise), rng=rng)


# Every gate kind the kernels run. The ancilla's y-rotations have none:
# lowering folds them into (c_S, s_S), see test_fold_rotation_*.
ALL_GATE_SAMPLES = [
    Hadamard(0),
    PhaseS(1),
    PhaseSdg(2),
    PauliX(1),
    CNOT(0, 2),
    CNOT(2, 0),
    CNOT(1, 2),
    CNOT(2, 1),
    DenseBlock((1,), [[math.cos(0.415), -math.sin(0.415)], [math.sin(0.415), math.cos(0.415)]]),
    DenseBlock((2, 0, 1), random_unitary(8, np.random.default_rng(8))),
    DenseBlock((1, 2), random_unitary(4)),
    DenseBlock((2, 0), random_unitary(4)),
]


def test_hadamard_on_zero():
    s = StateVector(1)
    s.apply_gate(Hadamard(0))
    assert np.allclose(s.data, np.array([1, 1]) / math.sqrt(2))


def test_state_constructors_reject_a_wrong_shape():
    """Entries that do not fit the qubit count raise: a vector of 3
    amplitudes for 2 qubits, a 3x3 matrix for 2 qubits, and a density
    matrix's 16 entries given flat rather than as 4x4."""
    with pytest.raises(ValueError, match="amplitude count does not match qubit count"):
        StateVector(2, np.ones(3))
    for entries in (np.eye(3), np.eye(4).reshape(-1)):
        with pytest.raises(ValueError, match="entry matrix does not match qubit count"):
            DensityMatrix(2, entries)


def test_cnot_on_basis():
    s = StateVector(2, np.array([0, 0, 1, 0]))  # |10>, qubit 0 is MSB
    s.apply_gate(CNOT(0, 1))
    assert np.allclose(s.data, [0, 0, 0, 1])  # |11>


def test_controlled_ry_pi():
    """A controlled Ry(pi) onto the ancilla turns it to |1> wherever the
    control is 1: postselecting 0 keeps the control-0 half, and a state
    whose control is 1 throughout annihilates."""
    circ = Circuit(n_work=2, has_ancilla=True, gates=(ControlledRy(math.pi, 0, 2),), measure_point=1)
    s = StateVector(2, np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2))  # control (|0> + |1>)/sqrt 2
    assert run_circuit(s, circ) == pytest.approx(0.5, abs=1e-15)
    assert np.abs(s.data - [1, 0, 0, 0]).max() < 1e-15
    with pytest.raises(EvolutionAnnihilatedError):
        run_circuit(StateVector(2, np.array([0, 0, 1, 0])), circ)


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES)
def test_every_gate_preserves_norm(gate):
    s = StateVector(3, random_state(3))
    s.apply_gate(gate)
    assert abs(np.linalg.norm(s.data) - 1.0) < 1e-12


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES)
def test_gate_unitary_consistency(gate):
    """Slice/matmul in-place application agrees with the dense unitary."""
    psi = random_state(3)
    s = StateVector(3, psi)
    s.apply_gate(gate)
    u = gates_unitary((gate,), 3)
    assert np.abs(s.data - u @ psi).max() < 1e-12


def test_gates_unitary_matches_kron():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    i2 = np.eye(2)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def ry(angle):
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]])

    assert np.abs(gates_unitary((Hadamard(0),), 2) - np.kron(h, i2)).max() < 1e-15
    # control on qubit 1 (the low bit), target qubit 0
    cnot = np.kron(i2, p0) + np.kron(x, p1)
    assert np.abs(gates_unitary((CNOT(1, 0),), 2) - cnot).max() == 0.0
    # register (2, 0), target 1: branch x = 2 * bit2 + bit0
    angles = {1: 0.4, 2: 1.9}
    gate = ConditionalRy((2, 0), tuple(angles.items()), 1)
    proj = (p0, p1)
    want = sum(
        np.kron(np.kron(proj[b0], ry(angles.get(2 * b2 + b0, 0.0))), proj[b2])
        for b0 in (0, 1)
        for b2 in (0, 1)
    )
    assert np.abs(gates_unitary((gate,), 3) - want).max() < 1e-15
    # a block on reversed qubits (1, 0) is the swapped matrix on (0, 1)
    u = random_unitary(4)
    swap = np.eye(4)[[0, 2, 1, 3]]
    got = gates_unitary((DenseBlock((1, 0), u),), 2)
    assert np.abs(got - swap @ u @ swap).max() < 1e-15
    # sequence order: later gates multiply from the left
    seq = gates_unitary((Hadamard(0), CNOT(0, 1)), 2)
    assert np.abs(seq - (np.kron(p0, i2) + np.kron(p1, x)) @ np.kron(h, i2)).max() < 1e-15


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES)
def test_density_matches_statevector(gate):
    psi = random_state(3)
    s = StateVector(3, psi)
    d = DensityMatrix(3, np.outer(psi, psi.conj()))
    s.apply_gate(gate)
    d.apply_gate(gate)
    assert np.abs(np.outer(s.data, s.data.conj()) - d.data).max() < 1e-12


def test_real_dtype_fast_path():
    s = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert s.data.dtype == np.float64
    s.apply_gate(Hadamard(0))
    assert s.data.dtype == np.float64
    s.apply_gate(PhaseS(0))  # forces the complex upcast
    assert s.data.dtype == np.complex128
    d = DensityMatrix(2)
    assert d.data.dtype == np.float64
    d.apply_gate(PhaseSdg(1))
    assert d.data.dtype == np.complex128


def test_measure_plus_ancilla():
    # Ry(pi/2) puts the ancilla into |+> on every work basis state
    work = random_state(2)
    s = StateVector(2, work)
    circ = Circuit(n_work=2, has_ancilla=True, gates=(Ry(math.pi / 2, 2),), measure_point=1)
    res = run_circuit(s, circ)
    assert res == pytest.approx(0.5, abs=1e-12)
    assert abs(np.linalg.norm(s.data) - 1.0) < 1e-12
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_trivial_state_unchanged():
    work = random_state(2)
    s = StateVector(2, work)
    res = run_circuit(s, Circuit(n_work=2, has_ancilla=True, gates=(), measure_point=0))
    assert res == pytest.approx(1.0)
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_prob_half_overlap():
    # |a0|^2 = |a1|^2 = 1/2 with |c| dt = 0.1: prob0 = (1 + e^{-0.4})/2
    term = PauliTerm.from_string(-1.0, "Z")
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    res = run_circuit(state, build_pauli_step(term, 0.1))
    expected = 0.5 * (1.0 + math.exp(-0.4))
    assert res == pytest.approx(expected, rel=1e-12)
    assert res == pytest.approx(0.83516, abs=1e-5)


def test_annihilation_raises():
    # |0> is the excited eigenvector of +10 Z: prob0 = e^{-40} < 1e-15
    state = StateVector(1, np.array([1.0, 0.0]))
    circ = build_pauli_step(PauliTerm.from_string(10.0, "Z"), 1.0)
    with pytest.raises(EvolutionAnnihilatedError):
        run_circuit(state, circ)


def test_noisy_statevector_step_samples_the_channel():
    # a noisy statevector step is one sampled trajectory: the same draws as
    # the ancilla measurement (with its E2 branch) and then sample_kraus on
    # the work qubits, done by hand from the circuit's controlled rotation
    # with the gate kernels one gate at a time (the fused step rounds differently)
    noise = NoiseModel(0.2, 0.3)
    work = random_state(2)
    circ = build_pauli_step(random_term(2), 0.3)
    rotation = circ.gates[circ.measure_point - 1]
    pivot_bit = (np.arange(4) >> (1 - rotation.control)) & 1
    c = np.where(pivot_bit, math.cos(rotation.angle / 2), 1.0)
    s = np.where(pivot_bit, math.sin(rotation.angle / 2), 0.0)
    for seed in range(5, 25):
        state = StateVector(2, work)
        rng_run = make_rng(seed)
        res = run_circuit(state, circ, rng=rng_run, noise=noise)
        by_hand = StateVector(2, work)
        rng_hand = make_rng(seed)
        for g in circ.gates[: circ.measure_point - 1]:
            by_hand.apply_gate(g)
        want = by_hand.measure_ancilla(c, s, noise.eps_d, rng=rng_hand)
        by_hand.sample_kraus(noise, rng_hand)
        for g in circ.post_measure:
            by_hand.apply_gate(g)
        assert res == pytest.approx(want, rel=1e-12)
        assert np.abs(state.data - by_hand.data).max() < 1e-12
        # both took the same number of draws, so the streams still agree
        assert rng_run.random() == rng_hand.random()
    with pytest.raises(ValueError, match="needs an rng"):
        run_circuit(StateVector(2, work), circ, noise=noise)


def test_measure_density_agrees_with_statevector():
    work = random_state(3)
    s = StateVector(3, work)
    d = DensityMatrix(3, np.outer(work, work.conj()))
    circ = build_pauli_step(random_term(3), 0.2)
    rs = run_circuit(s, circ)
    rd = run_circuit(d, circ)
    assert rs == pytest.approx(rd, abs=1e-10)
    fid = np.real(np.vdot(s.data, d.data @ s.data))
    assert fid == pytest.approx(1.0, abs=1e-10)


def random_density(n: int, source: np.random.Generator = rng) -> np.ndarray:
    """Mixed state of rank 3 (rank 2 on one qubit)."""
    vecs = [random_state(n, source) for _ in range(min(3, 2**n))]
    weights = source.dirichlet(np.ones(len(vecs)))
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


def random_grouped_block(n: int, size: int) -> GroupedBlock:
    support = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    dim = 2**size
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return GroupedBlock(n, support, (m + m.conj().T) / 2)


def lowering_cases():
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(3):
            cases.append((f"pauli-n{n}", build_pauli_step(random_term(n), float(rng.uniform(0.05, 0.5)))))
    for size in (1, 2, 3):
        for n in sorted({size, 3}):
            block = random_grouped_block(n, size)
            cases.append((f"grouped-n{n}-k{size}", build_grouped_step(block, float(rng.uniform(0.05, 0.5)))))
    for g, h in ((1.2, 0.3), (0.5, -0.8), (2.0, 1.5)):
        circ = with_dense_work_rotations(build_ising_block_gates(g, h, 0.2))
        cases.append((f"ising-block-{g}-{h}", circ))
    return cases


LOWERING_CASES = lowering_cases()


# (FUSED_MAX_SUPPORT, SUPEROP_MAX_SUPPORT, MASK_STACK_MAX_SUPPORT) values
# that force each step path on small registers: a density-matrix step runs
# as one superoperator, as the Pre/W/Post sandwich with W and the channel
# as one product over X-mask blocks, as that sandwich with W and the
# channel as passes, or with Pre and Post as gate lists on the gathered
# block (a statevector step is fused on all but the last)
STEP_PATHS = {
    "superop": (99, 99, 99),
    "sandwich": (99, 0, 99),
    "sandwich-pass": (99, 0, 0),
    "gate-list": (0, 0, 0),
}


def force_path(monkeypatch, path: str) -> None:
    fused, superop, stack = STEP_PATHS[path]
    monkeypatch.setattr(engine, "FUSED_MAX_SUPPORT", fused)
    monkeypatch.setattr(engine, "SUPEROP_MAX_SUPPORT", superop)
    monkeypatch.setattr(engine, "MASK_STACK_MAX_SUPPORT", stack)


# Each step form as (the path forced, None for the default; the noise; the
# state type; the class it lowers to)
STEP_FORMS = {
    "k0": (None, None, StateVector, engine.K0Step),
    "trajectory": (None, NoiseModel(0.1, 0.2), StateVector, engine.BranchStep),
    "superop": ("superop", NoiseModel(0.1, 0.2), DensityMatrix, engine.SuperopStep),
    "x-mask": ("sandwich", NoiseModel(0.1, 0.2), DensityMatrix, engine.MaskSandwichStep),
    "passes": ("sandwich-pass", NoiseModel(0.1, 0.2), DensityMatrix, engine.PassSandwichStep),
    "gate-list-sv": ("gate-list", None, StateVector, engine.BranchStep),
    "gate-list-dm": ("gate-list", NoiseModel(0.1, 0.2), DensityMatrix, engine.PassSandwichStep),
}


def holds_gates(step) -> bool:
    """Whether a branch step or a pass sandwich runs the circuit's own
    gate lists rather than matrices on S, told by what ``pre`` holds (a
    sandwich's ``post`` when Pre is empty, and the width when Post is
    too, as the two run alike)."""
    if type(step) is engine.BranchStep:
        return isinstance(step.pre, tuple)
    if type(step) is not engine.PassSandwichStep:
        return False
    held = step.pre or step.post
    if held is None:
        return len(step.support) > engine.FUSED_MAX_SUPPORT
    return isinstance(held[0], tuple)


def step_path(step) -> str:
    """The path a lowered step runs down, in ``STEP_PATHS``' names, or
    "fused" for a statevector step that runs as matrices. A branch step
    and a pass sandwich are told apart from their gate-list forms by what
    ``pre`` holds."""
    if holds_gates(step):
        return "gate-list"
    return next(path or "fused" for path, _, _, form in STEP_FORMS.values() if form is type(step))


def path_step(monkeypatch, path, circ, state, rng=None, noise=None):
    """Run ``circ`` once on ``state`` down the given path."""
    force_path(monkeypatch, path)
    step = lower_step(circ, state, noise)
    assert step_path(step) == (path if isinstance(state, DensityMatrix) or path == "gate-list"
                               else "fused")
    return run_step_circuit(state, step, rng=rng)


@pytest.mark.parametrize("circ", [c for _, c in LOWERING_CASES], ids=[i for i, _ in LOWERING_CASES])
def test_step_matches_postselected_operator(circ, monkeypatch):
    """Every noiseless step path (fused and gate-list, on a statevector
    and on a density matrix) equals the normalized ancilla-0 block of the
    full-circuit unitary, and prob0 its squared norm."""
    n = circ.n_work
    k = postselected_operator(circ)
    psi = random_state(n)
    out = k @ psi
    rho = random_density(n)
    branch = k @ rho @ k.conj().T
    p0 = float(np.trace(branch).real)
    for path in STEP_PATHS:
        s = StateVector(n, psi)
        res = path_step(monkeypatch, path, circ, s)
        assert res == pytest.approx(float(np.vdot(out, out).real), rel=1e-12), path
        assert np.abs(s.data - out / np.linalg.norm(out)).max() < 1e-12, path
        d = DensityMatrix(n, rho)
        res = path_step(monkeypatch, path, circ, d)
        assert res == pytest.approx(p0, rel=1e-12), path
        assert np.abs(d.data - branch / p0).max() < 1e-12, path


def full_kraus_step(circ, rho_work, model):
    """Oracle of a noisy density-matrix step (``oracles.kraus_step``): the
    (n+1)-qubit circuit with the channel on every qubit at once, ancilla
    included, projected on ancilla 0. Returns the normalized work-register
    state and prob0."""
    branch = kraus_step(circ, rho_work, model.kraus_operators())
    p0 = float(np.trace(branch).real)
    return branch / p0, p0


@pytest.mark.parametrize("eps_r,eps_d", [(0.3, 0.2), (0.0, 0.9), (1e-5, 1e-5), (0.0, 1.0)])
def test_noisy_step_matches_full_kraus_sum(eps_r, eps_d, monkeypatch):
    """A noisy density-matrix step, down every path, equals the
    (n+1)-qubit circuit with the channel on every qubit, ancilla included,
    projected on ancilla 0, up to full relaxation (eps_d = 1, where
    1 - eps_d is 0). A statevector trajectory step, down either
    path, equals with the same draws that circuit's ancilla-0 branch
    A0 psi or (an E2 jump on the ancilla) its ancilla-1 branch A1 psi,
    then the sampled work-qubit channel, then the post-measure block."""
    model = NoiseModel(eps_r, eps_d)
    circuits = [build_pauli_step(random_term(n), 0.3) for n in (1, 2, 3)]
    circuits += [
        build_grouped_step(random_grouped_block(3, 2), 0.3),
        with_dense_work_rotations(build_ising_block_gates(1.2, 0.3, 0.3)),
    ]
    for circ in circuits:
        n = circ.n_qubits
        rho_work = random_density(circ.n_work)
        want, p0 = full_kraus_step(circ, rho_work, model)
        for path in STEP_PATHS:
            d = DensityMatrix(circ.n_work, rho_work)
            res = path_step(monkeypatch, path, circ, d, noise=model)
            assert res == pytest.approx(p0, rel=1e-12), path
            assert np.abs(d.data - want).max() < 1e-12, path

        pre = gates_unitary(circ.pre_measure, n)
        post = gates_unitary(circ.post_measure, n)[0::2, 0::2]
        a0, a1 = pre[0::2, 0::2], pre[1::2, 0::2]
        psi = random_state(circ.n_work)
        for seed in range(6):
            rng_hand = make_rng(seed)
            kept = np.linalg.norm(a0 @ psi) ** 2
            prob0 = min(kept + eps_d * np.linalg.norm(a1 @ psi) ** 2, 1.0)
            out = a1 @ psi if rng_hand.random() * prob0 >= kept else a0 @ psi
            by_hand = StateVector(circ.n_work, out / np.linalg.norm(out))
            by_hand.sample_kraus(model, rng_hand)
            for path in STEP_PATHS:
                s = StateVector(circ.n_work, psi)
                res = path_step(monkeypatch, path, circ, s, rng=make_rng(seed), noise=model)
                assert res == pytest.approx(prob0, rel=1e-12), path
                assert np.abs(s.data - post @ by_hand.data).max() < 1e-12, path


def test_pre_only_step_on_a_non_hermitian_matrix_matches_the_kraus_oracle(monkeypatch):
    """A step whose gates end at the measurement (Pre_S, no Post_S) on a
    matrix that is not Hermitian, rho + 0.05 E with E complex and zero on
    the diagonal, equals ``full_kraus_step`` down every path, noisy and
    noiseless: no path assumes rho = rho^dag, which would turn a rho a^dag
    into a rho^dag a^dag."""
    local = np.random.default_rng(13)
    ancilla = 3
    gates = (Hadamard(0), CNOT(0, 1), PhaseS(2), Hadamard(2),
             Ry(0.4, ancilla), ControlledRy(0.9, 0, ancilla), ControlledRy(-0.6, 2, ancilla))
    circ = Circuit(3, True, gates, len(gates))
    assert circ.post_measure == ()
    e = local.standard_normal((8, 8)) + 1j * local.standard_normal((8, 8))
    np.fill_diagonal(e, 0.0)
    rho = random_density(3) + 0.05 * e
    assert np.abs(rho - rho.conj().T).max() > 0.05
    for model in (None, NoiseModel(0.02, 0.03)):
        want, p0 = full_kraus_step(circ, rho, model or NoiseModel(0.0, 0.0))
        for path in STEP_PATHS:
            d = DensityMatrix(3, rho)
            res = path_step(monkeypatch, path, circ, d, noise=model)
            assert res == pytest.approx(p0, rel=1e-12), (path, model)
            assert np.abs(d.data - want).max() < 1e-12, (path, model)


@pytest.mark.parametrize(
    "mode,noise,trajectories",
    [
        ("postselect", None, None),
        ("sample", None, None),
        ("postselect", NoiseModel(1e-3, 2e-3), None),
        ("sample", NoiseModel(1e-3, 2e-3), None),
        ("postselect", NoiseModel(1e-2, 2e-2), 3),
    ],
    ids=["sv-postselect", "sv-sample", "dm-postselect", "dm-sample", "sv-trajectories"],
)
def test_step_paths_agree(mode, noise, trajectories, monkeypatch):
    """The fused and the gate-list steps give the same LiH evolution, per
    term and grouped, on every state type and measurement mode. On a
    density matrix the fused steps run at the default cut, supports of up
    to 3 qubits as superoperators and wider ones as sandwiches, and also
    all as sandwiches. (Superoperators on LiH's 6-qubit supports would
    take 4096 x 4096 entries each.)"""
    from pite_sim.grouping import group_hamiltonian, lih_groupspec
    from pite_sim.hamiltonian import build_lih
    from pite_sim.pite import RunConfig, Schedule, run_generalized, run_pite

    h = build_lih()
    init = prepare_initial(InitialState.superposition([(0.8, "110000"), (0.6, "000011")]), 6)
    blocks = group_hamiltonian(h, lih_groupspec())
    config = RunConfig(
        mode=mode, noise=noise, trajectories=trajectories,
        seed=None if mode == "postselect" and trajectories is None else 3,
    )
    schedule = Schedule(dt=0.1, n_steps=2)
    cut = engine.SUPEROP_MAX_SUPPORT
    paths = {"default": (99, cut), "gate-list": (0, 0)}
    if noise is not None and trajectories is None:
        paths["sandwich"] = (99, 0)
    runs = {}
    for path, (fused, superop) in paths.items():
        monkeypatch.setattr(engine, "FUSED_MAX_SUPPORT", fused)
        monkeypatch.setattr(engine, "SUPEROP_MAX_SUPPORT", superop)
        runs[path] = [
            run_pite(h, init, schedule, config),
            run_generalized(h, blocks, init, schedule, config),
        ]
    for path in [p for p in paths if p != "gate-list"]:
        for fused, gate_list in zip(runs[path], runs["gate-list"]):
            assert fused.restarts == gate_list.restarts
            assert len(fused.records) == len(gate_list.records) == 3
            for a, b in zip(fused.records, gate_list.records):
                for field in ("energy", "fidelity", "p_cum"):
                    assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12), (
                        path, field
                    )


def arrays_in(ops) -> list[np.ndarray]:
    """The arrays a lowered step holds, its fields, nested tuples and gates
    opened."""
    if isinstance(ops, engine.BoundStep):
        return arrays_in(tuple(getattr(ops, f.name) for f in dataclasses.fields(ops)))
    if isinstance(ops, np.ndarray):
        return [ops]
    if isinstance(ops, DenseBlock):
        return [ops.matrix]
    if isinstance(ops, tuple):
        return [a for op in ops for a in arrays_in(op)]
    return []


def test_wide_support_runs_its_gate_list():
    """A step wider than FUSED_MAX_SUPPORT holds the circuit's own gate
    lists, which it runs through S's axis map, and (c_S, s_S) on S, on
    every state type, where its fused operators would grow as 4^|S|: no
    array it holds has more than 4^FUSED_MAX_SUPPORT entries. A weight-10 Z string on 10 qubits then
    still equals the closed form."""
    cut = engine.FUSED_MAX_SUPPORT
    noise = NoiseModel(1e-3, 1e-3)
    for width in (cut, cut + 1):
        circ = build_pauli_step(PauliTerm.from_string(-0.6, "Z" * width), 0.2)
        for state, model in (
            (StateVector(width), None),
            (StateVector(width), noise),
            (DensityMatrix(width), noise),
        ):
            step = lower_step(circ, state, model)
            assert (step_path(step) == "gate-list") == (width > cut)
            assert max(a.size for a in arrays_in(step)) <= 4**cut
            if width > cut:
                assert step.c.shape == step.s.shape == (2**width,)
                pre = step.pre if isinstance(state, StateVector) else step.pre[0]
                assert pre and pre == circ.pre_measure[: len(pre)]
    term = PauliTerm.from_string(-0.6, "Z" * 10)
    psi = random_state(10)
    s = StateVector(10, psi)
    step = lower_step(build_pauli_step(term, 0.2), s)
    assert step_path(step) == "gate-list"
    run_step_circuit(s, step)
    assert np.abs(s.data - dense_step_oracle(term, 0.2, psi)).max() < 1e-12


def test_wide_density_steps_defer_and_keep_their_order():
    """A noisy chain on 8 qubits at the default cut: a weight-7 step, a
    2-qubit step, a weight-7 step on another support. Each equals
    ``full_kraus_step`` after it. The first leaves the matrix in its own
    order and the channel owed once on the qubit off its support, so a
    wide step neither restores canonical order nor applies the channel on
    the whole register."""
    model = NoiseModel(0.02, 0.03)
    circuits = [
        build_pauli_step(PauliTerm.from_string(0.4, axes), 0.2)
        for axes in ("XYZZXZYI", "IIIIIIZZ", "IZXYYZZX")
    ]
    rho = random_density(8)
    d = DensityMatrix(8, rho)
    for i, circ in enumerate(circuits):
        step = lower_step(circ, d, model)
        assert step_path(step) == ("superop" if i == 1 else "gate-list")
        res = run_step_circuit(d, step)
        rho, p0 = full_kraus_step(circ, rho, model)
        assert res == pytest.approx(p0, rel=1e-12), i
        assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12, i
        if i == 0:
            assert d._order == step_target(8, tuple(range(16)), step.support)
            assert d._owed == [0] * 7 + [1]


def test_wide_statevector_trajectory_matches_the_hand_built_oracle():
    """A weight-7 trajectory step on 8 qubits at the default cut equals,
    with the same draws, the circuit's ancilla-0 branch A0 psi or (an E2
    jump on the ancilla) its ancilla-1 branch A1 psi, then the work-qubit
    channel sampled qubit 0 first, then the post-measure block, although
    the step samples the channel in its own qubit order."""
    model = NoiseModel(0.2, 0.3)
    circ = build_pauli_step(PauliTerm.from_string(-0.7, "IZXYYZZX"), 0.3)
    pre = gates_unitary(circ.pre_measure, 9)
    post = gates_unitary(circ.post_measure, 9)[0::2, 0::2]
    a0, a1 = pre[0::2, 0::2], pre[1::2, 0::2]
    psi = random_state(8)
    kept = np.linalg.norm(a0 @ psi) ** 2
    prob0 = kept + model.eps_d * np.linalg.norm(a1 @ psi) ** 2
    for seed in range(8):
        rng_hand = make_rng(seed)
        out = a1 @ psi if rng_hand.random() * prob0 >= kept else a0 @ psi
        by_hand = StateVector(8, out / np.linalg.norm(out))
        by_hand.sample_kraus(model, rng_hand)
        s = StateVector(8, psi)
        step = lower_step(circ, s, model)
        assert step_path(step) == "gate-list"
        rng_run = make_rng(seed)
        res = run_step_circuit(s, step, rng=rng_run)
        assert s._order is not None and s._order[0] != 0
        assert res == pytest.approx(prob0, rel=1e-12)
        assert np.abs(s.data - post @ by_hand.data).max() < 1e-12, seed
        assert rng_run.random() == rng_hand.random()


def kraus_trajectory_oracle(
    blocks: tuple, psi: np.ndarray, model: NoiseModel, rng_hand
) -> tuple[float, np.ndarray]:
    """One trajectory step from the (n+1)-qubit circuit's blocks (A0, A1,
    Post) on a unit vector, with the step's draws: the ancilla's E2 branch
    A1 psi or A0 psi drawn against prob0, then one Kraus branch per work
    qubit, qubit 0 first, the vector divided to unit norm after every one
    of them. Returns prob0 and the normalized result."""
    a0, a1, post = blocks
    kept = np.linalg.norm(a0 @ psi) ** 2
    prob0 = min(kept + model.eps_d * np.linalg.norm(a1 @ psi) ** 2, 1.0)
    out = a1 @ psi if rng_hand.random() * prob0 >= kept else a0 @ psi
    out = out / np.linalg.norm(out)
    keep = 1.0 - model.eps_r - model.eps_d
    for q in range(int(math.log2(out.size))):
        v = out.reshape(2**q, 2, -1)
        p_one = np.linalg.norm(v[:, 1]) ** 2
        p2, p3 = model.eps_d * p_one, model.eps_r * p_one
        p1, r = max(0.0, 1.0 - p2 - p3), rng_hand.random()
        if r < p1:
            v[:, 1] *= math.sqrt(keep)
        elif r < p1 + p2:
            v[:, 0], v[:, 1] = v[:, 1], 0.0
        else:
            v[:, 0] = 0.0
        out = out / np.linalg.norm(out)
    return prob0, post @ out


# the new tests below draw from generators of their own, which leaves the
# module's draws, and so every later test's data, as they were
CHAIN_RNG = np.random.default_rng(7)
CHAIN_TERMS = {
    "h2": build_h2(0.75).terms,
    "lih": build_lih().terms,
    "random7": tuple(  # the first of weight 7
        PauliTerm(float(CHAIN_RNG.uniform(-1.5, 1.5)),
                  tuple(AXES_POOL[i] for i in CHAIN_RNG.integers(int(k == 0), 4, size=7)))
        for k in range(4)
    ),
}


@pytest.mark.parametrize("form", ["k0", "gate-list", "trajectory"])
@pytest.mark.parametrize("model", list(CHAIN_TERMS))
def test_chain_of_steps_on_a_carried_norm_matches_the_oracle(model, form, monkeypatch):
    """A statevector carries its squared norm from step to step and
    divides only when read. Over a chain of 200 steps (the model's terms
    in turn, dt 0.1), every prob0 and the normalized state (read from a
    copy, so the chain itself is never divided by a read) match the
    (n+1)-qubit circuit on a vector normalized after every step: its
    postselected operator for K0 and gate-list steps, and
    :func:`kraus_trajectory_oracle` with the same draws for trajectory
    steps. The random 7-qubit terms include one of weight 7, which runs
    its gate list at the default cut."""
    if form == "gate-list":
        force_path(monkeypatch, "gate-list")
    noise = NoiseModel(0.05, 0.1) if form == "trajectory" else None
    circuits = [build_pauli_step(term, 0.1) for term in CHAIN_TERMS[model]]
    n = circuits[0].n_work
    oracles = []
    for circ in circuits:
        pre = gates_unitary(circ.pre_measure, n + 1)
        post = gates_unitary(circ.post_measure, n + 1)[0::2, 0::2]
        oracles.append(postselected_operator(circ) if noise is None
                       else (pre[0::2, 0::2], pre[1::2, 0::2], post))
    psi = random_state(n, np.random.default_rng(5))
    state = StateVector(n, psi)
    steps = [lower_step(circ, state, noise) for circ in circuits]
    forms = {step_path(step) for step in steps}
    assert forms == ({"gate-list"} if form == "gate-list" else
                     {"fused", "gate-list"} if model == "random7" else {"fused"})
    rng_run, rng_hand = make_rng(11), make_rng(11)
    for i in range(200):
        res = run_step_circuit(state, steps[i % len(steps)], rng=rng_run)
        oracle = oracles[i % len(steps)]
        if noise is None:
            out = oracle @ psi
            prob0, psi = np.linalg.norm(out) ** 2, out / np.linalg.norm(out)
        else:
            prob0, psi = kraus_trajectory_oracle(oracle, psi, noise, rng_hand)
        assert abs(res - prob0) < 1e-12, i
        assert np.abs(state.copy().data - psi).max() < 1e-12, i
    assert rng_run.random() == rng_hand.random()


@pytest.mark.parametrize("form", ["k0", "gate-list", "trajectory", "superop", "x-mask", "passes"])
def test_chain_with_no_read_rescales_before_it_underflows(form, monkeypatch):
    """A hand-built step whose ancilla Ry is uncontrolled keeps every state
    as it is with prob0 = cos^2(theta/2) = 0.01 (c^2 + eps_d s^2 under
    noise). 200 such steps with no read in between would shrink the
    carried weight to about 1e-400, below the smallest float, so a step
    rescales it first: ``data`` is finite, of unit norm or trace, and the
    start state. Pre is a CNOT chain and a Hadamard, and Post its inverse,
    on 3 work qubits (a fused K0 = c I) or on 8 (a gate list); a
    trajectory step has neither, and samples the channel on |000>, which
    every branch keeps. A density matrix runs the 3-qubit chain as a
    superoperator, X-mask or pass-form step under the trajectory's
    channel, from Pre^dag |000><000| Pre: Pre maps it onto |000><000|,
    which the uniform W scales and the channel keeps, and Post maps it
    back."""
    theta = 2.0 * math.acos(0.1)
    density = form in ("superop", "x-mask", "passes")
    n = 8 if form == "gate-list" else 3
    chain = () if form == "trajectory" else (*(CNOT(q, q + 1) for q in range(n - 1)), Hadamard(0))
    circ = Circuit(n_work=n, has_ancilla=True, measure_point=len(chain) + 1,
                   gates=(*chain, Ry(theta, n), *reversed(chain)))
    noise = NoiseModel(0.2, 1e-3) if form == "trajectory" or density else None
    if density:
        force_path(monkeypatch, STEP_FORMS[form][0])
        psi = gates_unitary(chain, n).conj().T[:, 0]
        start = np.outer(psi, psi.conj())
        state = DensityMatrix(n, start)
    else:
        start = np.eye(2**n)[0] if noise is not None else random_state(n, np.random.default_rng(6))
        state = StateVector(n, start)
    step = lower_step(circ, state, noise)
    assert step_path(step) == (STEP_FORMS[form][0] if density else
                               "gate-list" if form == "gate-list" else "fused")
    want = 0.01 + (0.0 if noise is None else 1e-3 * 0.99)
    draws = make_rng(3)
    for _ in range(200):
        assert run_step_circuit(state, step, rng=draws) == pytest.approx(want, rel=1e-12)
    data = state.data
    norm = np.trace(data).real if density else np.linalg.norm(data)
    assert np.isfinite(data).all() and abs(norm - 1.0) < 1e-12
    assert np.abs(data - start).max() < 1e-12


def test_density_steps_pick_their_path_by_support_size():
    """A density-matrix step on S runs as one 4^|S| x 4^|S| superoperator
    while 2|S| <= FUSED_MAX_SUPPORT, so that it stays within the fused
    cap of 64 x 64, as a sandwich whose weight and channel are one stack
    of 8^|S| entries while 3|S| <= 2 FUSED_MAX_SUPPORT (the same cap), as
    a sandwich with them as passes up to FUSED_MAX_SUPPORT qubits, and
    gate by gate beyond."""
    cut = engine.FUSED_MAX_SUPPORT
    noise = NoiseModel(1e-3, 1e-3)
    for width in range(1, cut + 2):
        circ = build_pauli_step(PauliTerm.from_string(-0.6, "X" * width), 0.2)
        step = lower_step(circ, DensityMatrix(width), noise)
        want = ("superop" if 2 * width <= cut else "sandwich" if 3 * width <= 2 * cut
                else "sandwich-pass" if width <= cut else "gate-list")
        assert step_path(step) == want, width
        if want == "superop":
            assert step.t_s.shape == (4**width, 4**width)
        if want == "sandwich":
            assert step.stack.shape == (2**width,) * 3


def test_rotation_reading_outside_the_support_is_rejected():
    # (c, s) of a rotation controlled on qubit 1 do not factor through S = (0,)
    with pytest.raises(ValueError, match="outside the step's support"):
        engine._fold_rotation((ControlledRy(0.4, 1, 2),), (0,), 2)


@pytest.mark.parametrize("n", [2, 8], ids=["fused", "wide"])
def test_work_register_gate_without_a_kernel_is_rejected(n):
    """A rotation on a work qubit in Pre or in Post has no kernel, and
    ``lower_step`` names it in a ``ValueError`` before it builds anything,
    on either state type, noiseless and noisy, on a support the fused
    operators take and on one wider than ``FUSED_MAX_SUPPORT``."""
    chain = tuple(CNOT(q, q + 1) for q in range(n - 1))
    for stray in (Ry(0.3, 1), ControlledRy(0.3, 0, 1)):
        for pre, post in (((*chain, stray), adjoint_sequence(chain)),
                          (chain, (stray, *adjoint_sequence(chain)))):
            circ = Circuit(n, True, (*pre, ControlledRy(0.5, 0, n), *post), len(pre) + 1)
            for state in (StateVector(n), DensityMatrix(n)):
                for noise in (None, NoiseModel(1e-3, 1e-3)):
                    with pytest.raises(ValueError, match=rf"{re.escape(repr(stray))} on its work register"):
                        lower_step(circ, state, noise)


@pytest.mark.parametrize("form", list(STEP_FORMS))
def test_every_step_form_returns_a_float_prob0(form, monkeypatch):
    """Each step form returns prob0 as a builtin ``float`` that equals the
    oracle's: |K0 psi|^2 of ``postselected_operator`` on a noiseless
    statevector, else the ancilla-0 weight of ``full_kraus_step``, which a
    trajectory's c^2 + eps_d s^2 weights sum to as well."""
    path, noise, state_type, form_class = STEP_FORMS[form]
    circ = build_pauli_step(PauliTerm.from_string(-0.6, "IXYZ"), 0.3)
    if path is not None:
        force_path(monkeypatch, path)
    psi = random_state(4, np.random.default_rng(23))
    state = state_type(4, np.outer(psi, psi.conj()) if state_type is DensityMatrix else psi)
    step = lower_step(circ, state, noise)
    assert step_path(step) == (path or "fused") and type(step) is form_class, form
    prob0 = run_step_circuit(state, step, rng=make_rng(5))
    if noise is None:
        z = postselected_operator(circ) @ psi
        want = float(np.vdot(z, z).real)
    else:
        want = full_kraus_step(circ, np.outer(psi, psi.conj()), noise)[1]
    assert type(prob0) is float and prob0 == pytest.approx(want, rel=1e-12), form


def test_fold_rotation_matches_the_rotation_run_gate_by_gate():
    # (c, s) summed from the gates' angles against the rotation's dense
    # unitary, gate by gate from the definitions, on sum_x |x>|0>
    support, ancilla = (0, 2, 3), 4
    rotation = (
        Ry(0.3, ancilla),
        ControlledRy(0.7, 2, ancilla),
        ConditionalRy((3, 0), ((0, 0.2), (2, -1.1), (3, 0.5)), ancilla),
        ConditionalRy(support, tuple((x, 0.1 * x - 0.3) for x in range(8)), ancilla),
        ControlledRy(-0.4, 0, ancilla),
    )
    c, s = engine._fold_rotation(rotation, support, ancilla)
    # qubit 1 is outside the support and untouched: read its 0 half
    probe = gates_unitary(rotation, 5)[:, 0::2].sum(axis=1).reshape(2, 2, 8)[:, 0].reshape(-1)
    assert np.abs(probe.imag).max() == 0.0
    probe = probe.real
    assert np.abs(c - probe[0::2]).max() < 1e-15
    assert np.abs(s - probe[1::2]).max() < 1e-15


@pytest.mark.parametrize("form", list(STEP_FORMS))
def test_step_lowered_for_another_state_type_is_rejected(form, monkeypatch):
    """Each step form, run on the state type it was not lowered for,
    raises ``TypeError`` naming the one it was, before the state or the
    step's moves change."""
    path, noise, state_type, form_class = STEP_FORMS[form]
    if path is not None:
        force_path(monkeypatch, path)
    circ = build_pauli_step(PauliTerm.from_string(-0.6, "IXYZ"), 0.3)
    step = lower_step(circ, state_type(4), noise)
    assert type(step) is form_class and form_class.state_type is state_type
    psi = random_state(4, np.random.default_rng(29))
    other = DensityMatrix if state_type is StateVector else StateVector
    state = other(4, np.outer(psi, psi.conj()) if other is DensityMatrix else psi)
    before = state._stored.copy()
    with pytest.raises(TypeError, match=f"lowered for {state_type.__name__}"):
        run_step_circuit(state, step, rng=make_rng(5))
    assert np.array_equal(state._stored, before) and state._order is None and not step.moves


def test_outcome_rule_clamps_and_raises():
    """``_postselected`` returns a prob0 in [threshold, 1] as it is, 1.0
    for one over 1 by at most 1e-9, and raises past that and below the
    threshold."""
    threshold = engine.ANNIHILATION_THRESHOLD
    for prob0 in (threshold, 0.5, 1.0):
        assert engine._postselected(prob0) == prob0
    result = engine._postselected(1.0 + 1e-9)
    assert result == 1.0 and type(result) is float
    with pytest.raises(ValueError, match="exceeds 1"):
        engine._postselected(1.0 + 2e-9)
    with pytest.raises(EvolutionAnnihilatedError):
        engine._postselected(math.nextafter(threshold, 0.0))


class FixedRng:
    """An rng whose every draw is ``r``, counting its draws."""

    def __init__(self, r):
        self.r, self.draws = r, 0

    def random(self):
        self.draws += 1
        return self.r


def test_jump_branch_takes_one_draw():
    """A statevector ancilla with a jump branch reaches outcome 0 with
    prob0 = kept + eps_d jumped, the weights of C psi and S psi, and keeps
    S psi when one draw r has r prob0 >= kept, else C psi."""
    psi = np.array([0.6, 0.8])
    c, s = np.array([1.0, 0.0]), np.array([0.0, 1.0])  # kept 0.36, jumped 0.64
    prob0 = 0.36 + 0.5 * 0.64
    for r, kept in ((0.53, [0.0, 1.0]), (0.52, [1.0, 0.0])):  # r prob0 = 0.3604, 0.3536
        state, draws = StateVector(1, psi), FixedRng(r)
        result = state.measure_ancilla(c, s, 0.5, draws)
        assert result == pytest.approx(prob0, rel=1e-15) and type(result) is float
        assert draws.draws == 1
        assert np.abs(state.data - kept).max() < 1e-15, r


def test_step_whose_outcome_weight_exceeds_one_raises():
    """A hand-built step whose outcome-0 weight exceeds 1 is no
    measurement, and raises on either state type, before the state
    changes."""
    psi, rho = random_state(2), random_density(2)
    c = np.full(4, math.sqrt(1.01))  # W = c c^T = 1.01 everywhere
    steps = [
        (StateVector(2, psi), engine.K0Step((0, 1), 1.01 * np.eye(4))),
        (DensityMatrix(2, rho), engine.PassSandwichStep((0, 1), None, c, np.zeros(4), None)),
    ]
    for state, step in steps:
        with pytest.raises(ValueError, match="exceeds 1"):
            run_step_circuit(state, step)
    assert np.array_equal(steps[0][0].data, psi) and np.array_equal(steps[1][0].data, rho)


def test_step_whose_outcome_weight_is_nan_raises():
    """A hand-built Ry(nan) step on the ancilla gives outcome-0 weight NaN,
    which must fail the weight check on either state type before the
    state changes, not return prob0 = nan and leave a NaN state."""
    for state in (DensityMatrix(1), StateVector(2)):
        n = state.n_qubits
        before = state.data.copy()
        circ = Circuit(n_work=n, has_ancilla=True, gates=(Ry(math.nan, n),), measure_point=1)
        with pytest.raises(ValueError, match="is NaN"):
            run_step_circuit(state, lower_step(circ, state))
        assert np.array_equal(state.data, before)
    with pytest.raises(ValueError, match="is NaN"):
        engine._postselected(math.nan)


def test_measure_ancilla_jump_branch_needs_rng():
    # a noisy ancilla on a statevector samples its branch: no rng is a
    # ValueError, raised before the state changes
    psi = random_state(2)
    s = StateVector(2, psi)
    with pytest.raises(ValueError, match="needs an rng"):
        s.measure_ancilla(np.full(4, 0.8), np.full(4, 0.6), eps_d=0.1)
    assert np.array_equal(s.data, psi)


def test_density_measure_ancilla_weights_the_flushed_matrix():
    """A density matrix's ``measure_ancilla`` reads ``data``, whatever
    the matrix owes or the order it is stored in: prob0 is
    sum_x W_xx rho_xx and rho becomes W * rho / prob0, with
    W = c c^T + eps_d s s^T: its trace and subspace weight, read in
    canonical order before ``data`` divides the kept W * rho, are that
    matrix's too. A W whose diagonal weight exceeds 1 raises
    ``ValueError`` and leaves the state as it was."""
    source = np.random.default_rng(31)
    noisy = DensityMatrix(3, random_density(3, source))
    run_circuit(noisy, build_pauli_step(PauliTerm.from_string(-0.8, "IXY"), 0.3),
                noise=NoiseModel(0.1, 0.2))
    assert noisy._order is not None and any(noisy._owed)  # qubit 0 owes its channel
    rho = noisy.copy().data
    half = source.uniform(0.0, math.pi, 8)
    c, s = np.cos(half), np.sin(half)
    basis, _ = np.linalg.qr(source.standard_normal((8, 2)) + 1j * source.standard_normal((8, 2)))
    for eps_d in (0.0, 0.3):
        state = noisy.copy()
        weights = np.outer(c, c) + eps_d * np.outer(s, s)
        want = float(np.sum(weights.diagonal() * rho.diagonal()).real)
        prob0 = state.measure_ancilla(c, s, eps_d)
        assert type(prob0) is float and abs(prob0 - want) < 1e-12, eps_d
        kept = weights * rho / want
        assert abs(state.trace() - 1.0) < 1e-12, eps_d
        subspace = np.trace(basis.conj().T @ kept @ basis).real
        assert abs(state.subspace_weight(basis) - subspace) < 1e-12, eps_d
        assert np.abs(state.data - kept).max() < 1e-12, eps_d
    state = noisy.copy()
    with pytest.raises(ValueError, match="exceeds 1"):
        state.measure_ancilla(np.full(8, 1.01), s)
    assert np.array_equal(state.data, rho)


def test_trajectories_unravel_the_noisy_step():
    """prob0 * psi psi^dag over single-step trajectories averages to the
    density matrix's unnormalized ancilla-0 branch."""
    noise = NoiseModel(0.2, 0.3)
    circ = build_pauli_step(PauliTerm.from_string(-0.9, "XY"), 0.4)
    psi = np.array([0.3 + 0.4j, -0.5, 0.2j, 0.6])
    psi /= np.linalg.norm(psi)
    d = DensityMatrix(2, np.outer(psi, psi.conj()))
    exact = run_circuit(d, circ, noise=noise) * d.data
    n_traj = 20_000
    samples = np.empty((n_traj, 4, 4), dtype=complex)
    rng_local = make_rng(11)
    for i in range(n_traj):
        s = StateVector(2, psi)
        res = run_circuit(s, circ, rng=rng_local, noise=noise)
        samples[i] = res * np.outer(s.data, s.data.conj())
    parts = np.concatenate([samples.real, samples.imag], axis=1)
    want = np.concatenate([exact.real, exact.imag], axis=0)
    se = parts.std(axis=0) / math.sqrt(n_traj)
    z = np.abs(parts.mean(axis=0) - want) / np.maximum(se, 1e-12)
    assert z.max() < 5.0


def test_step_lowering_rejects_other_gates_at_the_ancilla():
    work_gate_after_rotation = Circuit(
        n_work=2, has_ancilla=True,
        gates=(ControlledRy(0.4, 0, 2), Hadamard(1)), measure_point=2,
    )
    hadamard_on_ancilla = Circuit(n_work=1, has_ancilla=True, gates=(Hadamard(1),), measure_point=1)
    for circ in (work_gate_after_rotation, hadamard_on_ancilla):
        with pytest.raises(ValueError, match="ancilla"):
            lower_step(circ, StateVector(circ.n_work))


def test_noise_identity_and_full_decay():
    d = DensityMatrix(1, np.array([[0.0, 0.0], [0.0, 1.0]]))
    d.apply_noise(NoiseModel(0.0, 0.0))
    assert np.allclose(d.data, [[0, 0], [0, 1]])
    # eps_d carries the |1> -> |0> jump in the channel's Kraus set
    d.apply_noise(NoiseModel(0.0, 1.0))
    assert np.allclose(d.data, [[1, 0], [0, 0]])


def test_noise_offdiagonal_damping():
    d = DensityMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
    d.apply_noise(NoiseModel(1e-5, 1e-5))
    assert d.data[0, 1] == pytest.approx(0.5 * math.sqrt(1 - 2e-5), rel=1e-14)
    assert d.trace() == pytest.approx(1.0, abs=1e-14)


def test_kraus_completeness():
    for eps_r, eps_d in [(0.0, 0.0), (1e-5, 1e-5), (0.3, 0.6), (1.0, 0.0)]:
        model = NoiseModel(eps_r, eps_d)
        total = sum(e.conj().T @ e for e in model.kraus_operators())
        assert np.abs(total - np.eye(2)).max() < 1e-12
    with pytest.raises(ValueError):
        NoiseModel(0.7, 0.7)
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0)


@pytest.mark.parametrize("eps_r,eps_d", [(0.3, 0.2), (1e-5, 1e-5), (0.0, 0.9)])
def test_noise_matches_dense_superoperator(eps_r, eps_d):
    model = NoiseModel(eps_r, eps_d)
    for n in (1, 2, 3):
        psi = random_state(n)
        d = DensityMatrix(n, np.outer(psi, psi.conj()))
        d.apply_noise(model)
        rho = kraus_channel(np.outer(psi, psi.conj()), model.kraus_operators())
        assert np.abs(d.data - rho).max() < 1e-14
        assert d.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(d.data - d.data.conj().T).max() < 1e-12


@pytest.mark.parametrize("path", STEP_PATHS)
def test_deferred_channel_matches_the_channel_applied_at_once(path, monkeypatch):
    """Three noisy Trotter steps of Ising n=5 on a density matrix, down
    every path, equal after every step the oracle that applies the
    channel on every qubit at once. The supports have one and two qubits,
    so a run owes several applications on most qubits at most steps: a
    superoperator step takes in what its support owes, and a sandwich or
    gate-list step applies it (its single-Z terms, without Pre or Post,
    leave their own channel owed too). The state is read from a deep copy,
    which leaves the run's owed counts alone."""
    force_path(monkeypatch, path)
    model = NoiseModel(0.02, 0.03)
    circuits = [build_pauli_step(t, 0.1) for t in build_ising(5, 1.0, 1.2, 0.3).terms]
    rho = random_density(5)
    d = DensityMatrix(5, rho)
    steps = [lower_step(c, d, model) for c in circuits]
    for _ in range(3):
        for circ, step in zip(circuits, steps):
            res = run_step_circuit(d, step)
            rho, p0 = full_kraus_step(circ, rho, model)
            assert res == pytest.approx(p0, rel=1e-13)
            assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-13
    assert max(d._owed) > 1  # the run did defer
    assert np.abs(d.data - rho).max() < 1e-13


def test_owed_applications_fold_into_one_channel():
    """m calls of ``apply_noise`` equal one flush of m owed applications
    on every qubit, and owing another model first applies the old one."""
    model, other = NoiseModel(0.3, 0.2), NoiseModel(0.1, 0.05)
    rho = random_density(3)
    for m in (1, 2, 5):
        calls = DensityMatrix(3, rho)
        for _ in range(m):
            calls.apply_noise(model)
        folded = DensityMatrix(3, rho)
        folded._adopt(model)
        folded._owed = [m] * 3
        assert np.abs(calls.data - folded.data).max() < 1e-15, m
        folded._owed = [1] * 3
        folded.apply_noise(other)
        calls.apply_noise(model)
        calls.apply_noise(other)
        assert np.abs(calls.data - folded.data).max() < 1e-15, m


def test_channel_superoperator_matches_the_channel():
    """``_channel_superop`` on the vectorized blocks of the leading sites
    (a density matrix moved into site-pair order for a superoperator step
    on them) equals ``_channel`` on the whole matrix, for several owed
    counts."""
    model = NoiseModel(0.3, 0.2)
    rho = random_density(3)
    for counts in ((1,), (2, 0), (1, 3), (0, 1, 4)):
        want = rho.copy()
        engine._channel(want, model, counts)
        d = DensityMatrix(3, rho)
        gathered, run = d._gather_sites(identity_superop_step(tuple(range(len(counts)))))
        block = gathered.reshape(4 ** len(counts), -1)
        d._stored, d._order = engine._channel_superop(model, counts) @ block, run.order
        assert np.abs(d.data - want).max() < 1e-14, counts


# Noise models under which the channel builds must equal their oracles
# bitwise: weak, strong, eps_d = 1 (keep = 0), no dephasing, mostly eps_d
BITWISE_MODELS = [(1e-5, 1e-5), (0.3, 0.2), (0.0, 1.0), (0.1, 0.0), (0.05, 0.4)]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_channel_builds_equal_their_oracles_bitwise():
    """``_channel_factors`` equals the ``np.kron`` chain for every count
    0-3 on up to 3 qubits and 450 random counts on 4-6 qubits, and
    ``_channel_superop`` equals ``_channel`` on the identity taken into
    site-pair order on up to 3 qubits (the widest superoperator step),
    bit for bit, under each model of ``BITWISE_MODELS``."""
    rng = np.random.default_rng(33)
    short = [c for k in range(1, 4) for c in itertools.product(range(4), repeat=k)]
    wide = [tuple(rng.integers(0, 6, size=rng.integers(4, 7)).tolist()) for _ in range(450)]
    for eps in BITWISE_MODELS:
        model = NoiseModel(*eps)
        for counts in short + wide:
            jumps, factor = engine._channel_factors.__wrapped__(model, counts)
            want_jumps, want = kron_channel_factors(model, counts)
            assert jumps == want_jumps and same_bits(factor, want), (eps, counts)
        for counts in short:
            superop = engine._channel_superop.__wrapped__(model, counts)
            want = identity_channel_superop(engine._channel, model, counts)
            assert same_bits(superop, want), (eps, counts)


@pytest.mark.parametrize("model", ["lih", "ising8"])
def test_adjoint_diagonals_equal_the_per_mask_loop_bitwise(model):
    """``_adjoint_diagonals``, one update per owed qubit over all X masks,
    equals the update per (mask, qubit) pair bit for bit on LiH and Ising
    n = 8, for random owed counts (zeros included) under three models."""
    h = build_lih() if model == "lih" else build_ising(8, 1.0, 1.2, 0.3)
    rng = np.random.default_rng(8)
    for eps in ((1e-5, 1e-5), (0.3, 0.2), (0.0, 1.0)):
        noise = NoiseModel(*eps)
        for _ in range(6):
            counts = tuple(rng.integers(0, 4, size=h.n_qubits).tolist())
            want = adjoint_diagonals_loop(h, noise, counts)
            assert same_bits(engine._adjoint_diagonals(h, noise, counts), want), (eps, counts)


def in_order(rho: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """The buffer of ``rho`` with its bits in ``order`` (label q is the row
    bit of qubit q, n + q its column bit), moved one bit per axis, without
    the engine's merged axes."""
    n = rho.shape[0].bit_length() - 1
    return rho.reshape((2,) * (2 * n)).transpose(order).reshape(-1)


def step_target(n: int, order: tuple[int, ...], support: tuple[int, ...]):
    """The order a density-matrix step on ``support`` works in, written
    out from its definition: the rows of S, then its columns, the other
    qubits' rows as ``order`` stores them, their columns alike."""
    rest = tuple(q for q in order if q < n and q not in support)
    columns, rest_columns = tuple(n + q for q in support), tuple(n + q for q in rest)
    return support + columns + rest + rest_columns


def site_pairs(n: int, sites) -> tuple[int, ...]:
    """The order of a matrix stored in site-pair order, its sites in the
    order given: each qubit's row bit q, then its column bit n + q."""
    return tuple(label for q in sites for label in (q, n + q))


def site_target(n: int, order: tuple[int, ...], support: tuple[int, ...]):
    """The order a superoperator step on ``support`` works in, written out
    from its definition: a matrix stored in site-pair order whose sites of
    S form one contiguous run stays as it is; any other gets S's sites
    first, then the other qubits in the order their row bits are stored
    in, each as a (row, column) pair."""
    sites = order[::2]
    if order[1::2] == tuple(q + n for q in sites) and support:
        where = sorted(sites.index(q) for q in support)
        if where == list(range(where[0], where[0] + len(support))):
            return order
    rest = tuple(q for q in order if q < n and q not in support)
    return site_pairs(n, support + rest)


def bare_step(support: tuple[int, ...]) -> engine.BoundStep:
    """A step on ``support`` with no operators, of no form: what
    ``_gather`` reads of a step is its support and its move cache."""
    return engine.BoundStep(support)


def identity_superop_step(support: tuple[int, ...]) -> engine.SuperopStep:
    """A superoperator step on ``support`` whose T_S is the identity: what
    ``_gather_sites`` reads of a step is its support, T_S and its move
    cache."""
    return engine.SuperopStep(support, np.eye(4 ** len(support)))


def test_gather_moves_nothing_when_the_state_is_stored_in_the_step_order(monkeypatch):
    """A state stored in a step's order already hands back its stored
    array: a vector whose order leads with S (after a step on the same
    support, or on a wider one that S leads), reshaped, and a matrix in
    site-pair order (each qubit's row bit, then its column bit) to a
    superoperator step whose sites form one contiguous run there (after a
    superoperator step on S, say, or on a wider run that holds S),
    flat. The step keeps "no move" for that layout, so meeting it a
    second time looks no order up. A matrix gathered for a sandwich step
    whose S block leads but whose other columns come before their rows
    still moves, into the step's order; so does one in site-pair order
    to a superoperator step whose sites are not one run there, with its
    sites first and the others as they were stored."""
    n, support = 4, (1, 2, 3)
    circ = build_pauli_step(PauliTerm.from_string(0.4, "IXZY"), 0.1)
    local = np.random.default_rng(8)
    s = StateVector(n, random_state(n, local))
    run_circuit(s, circ)
    rho = random_density(n, local)
    d = DensityMatrix(n, rho)
    run_circuit(d, circ, noise=NoiseModel(0.02, 0.03))
    assert s._order == (1, 2, 3, 0) and d._order == site_pairs(n, (1, 2, 3, 0))
    vector_steps = [bare_step(support), bare_step((1, 2))]
    # the runs (1, 2, 3), (2, 3) and (2,) sit after 0, 1 and 1 sites
    matrix_steps = [(identity_superop_step(q), p) for q, p in ((support, 0), ((2, 3), 1), ((2,), 1))]
    for meeting in ("first", "second"):
        for step in vector_steps:
            order = s._order
            gathered, target = s._gather(step)
            assert target == order and np.shares_memory(gathered, s._stored)
            assert gathered.shape == (2 ** len(step.support), 2 ** (n - len(step.support)))
            assert step.moves == {(n, order): (order, None)}, meeting
        for step, p in matrix_steps:
            order = d._order
            gathered, run = d._gather_sites(step)
            assert run.order == order and run.move is None and run.sites == step.support
            assert np.shares_memory(gathered, d._stored) and gathered.shape == (4**n,)
            assert (run.before, run.after) == (4**p, 4 ** (n - p - len(step.support)))
            assert step.moves == {(n, order): run}, meeting
        monkeypatch.setattr(engine, "_step_order", lambda *args: pytest.fail("an order was looked up"))
        monkeypatch.setattr(engine, "_site_run", lambda *args: pytest.fail("an order was looked up"))
    monkeypatch.undo()
    order = (1, 2, 3, 5, 6, 7, 4, 0)  # the rest's column before its row
    d = DensityMatrix(n, rho)
    d._stored, d._order = in_order(rho, order), order
    gathered, target = d._gather(bare_step(support))
    assert target == step_target(n, order, support) == (1, 2, 3, 5, 6, 7, 0, 4)
    assert np.array_equal(gathered.reshape(-1), in_order(rho, target))
    order = site_pairs(n, (1, 2, 3, 0))  # sites 0 and 1 apart
    d._stored, d._order = in_order(rho, order), order
    gathered, run = d._gather_sites(identity_superop_step((0, 1)))
    assert run.order == site_target(n, order, (0, 1)) == site_pairs(n, (0, 1, 2, 3))
    assert run.move is not None and (run.before, run.sites) == (1, (0, 1))
    assert np.array_equal(gathered, in_order(rho, run.order))


def vector_in_order(psi: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """The buffer of ``psi`` with its bits in ``order``, one bit per axis."""
    n = psi.size.bit_length() - 1
    return psi.reshape((2,) * n).transpose(order).reshape(-1)


def transposed(stored: np.ndarray, current: tuple[int, ...], target: tuple[int, ...]):
    """``stored``, whose bits carry the labels ``current``, moved into
    ``target`` by a transposed copy, the move a matrix or a vector of
    more than ``_INDEX_MAX_QUBITS`` qubits makes."""
    shape, axes = engine._transposition(current, target)
    return np.ascontiguousarray(stored.reshape(shape).transpose(axes)).reshape(-1)


def test_index_move_equals_the_transposition_bitwise():
    """On a vector of 1 to ``_INDEX_MAX_QUBITS`` (10) qubits, stored in a
    random order or canonically, a step whose order differs from the
    stored one holds a read-only (2^k, rest) ``intp`` index, and its
    ``take`` is bitwise the transposed copy and the vector written out in
    the step's order. A second gather from the same layout reuses the
    index."""
    local = np.random.default_rng(2511)
    assert engine._INDEX_MAX_QUBITS == 10
    held = 0
    for n in range(1, engine._INDEX_MAX_QUBITS + 1):
        for trial in range(4):
            psi = local.standard_normal(2**n)
            if trial % 2:
                psi = psi + 1j * local.standard_normal(2**n)
            order = None if trial == 0 else tuple(local.permutation(n).tolist())
            size = int(local.integers(1, min(n, engine.FUSED_MAX_SUPPORT) + 1))
            support = tuple(sorted(local.choice(n, size=size, replace=False).tolist()))
            s = StateVector(n, psi)
            if order is not None:
                s._stored, s._order = vector_in_order(s._stored, order), order
            stored = s._stored.copy()
            step = bare_step(support)
            gathered, target = s._gather(step)
            current = tuple(range(n)) if order is None else order
            assert target == support + tuple(q for q in current if q not in support)
            assert gathered.shape == (2**size, 2 ** (n - size))
            assert gathered.flags.c_contiguous
            assert np.shares_memory(gathered, s._stored) == (target == current)
            want = vector_in_order(psi, target)
            assert gathered.tobytes() == want.tobytes() == transposed(stored, current, target).tobytes()
            _, index = step.moves[n, order]
            if target == current:
                assert index is None
                continue
            held += 1
            assert index.dtype == np.intp and index.shape == gathered.shape
            assert not index.flags.writeable
            again, _ = s._gather(step)
            assert again.tobytes() == want.tobytes() and len(step.moves) == 1
    assert held >= 25  # of 40 layouts; the rest are in order already


def test_large_vectors_and_density_matrices_transpose():
    """A vector of 11 to 13 qubits, past ``_INDEX_MAX_QUBITS``, and a
    density matrix of any size move by the transposed copy and hold no
    index."""
    local = np.random.default_rng(2512)
    support = (2, 5, 10)
    for n in range(engine._INDEX_MAX_QUBITS + 1, 14):
        psi = local.standard_normal(2**n)
        order = tuple(local.permutation(n).tolist())
        s = StateVector(n, psi)
        s._stored, s._order = vector_in_order(s._stored, order), order
        step = bare_step(support)
        gathered, target = s._gather(step)
        assert type(step.moves[n, order][1]) is tuple
        assert gathered.shape == (8, 2 ** (n - 3))
        assert gathered.tobytes() == vector_in_order(psi, target).tobytes()
    for n in range(1, 7):
        for trial in range(4):
            rho = random_density(n, local)
            order = None if trial == 0 else tuple(local.permutation(2 * n).tolist())
            size = int(local.integers(1, n + 1))
            support = tuple(sorted(local.choice(n, size=size, replace=False).tolist()))
            d = DensityMatrix(n, rho)
            if order is not None:
                d._stored, d._order = in_order(rho, order), order
            step = bare_step(support)
            gathered, target = d._gather(step)
            _, move = step.moves[n, order]
            assert move is None or type(move) is tuple
            assert np.array_equal(gathered.reshape(-1), in_order(rho, target))


def transposing_gather(self, step):
    """An oracle for ``_State._gather`` that keeps nothing, written out
    from the step order's definition: the state in a fresh transposed
    copy, one bit per axis, or, when stored in the step's order already, a
    reshaped view."""
    n, support, sides = self.n_qubits, step.support, self._sides
    current = tuple(range(sides * n)) if self._order is None else self._order
    if sides == 1:
        target = support + tuple(q for q in current if q not in support)
    else:
        target = step_target(n, current, support)
    rows = 2 ** (len(support) * sides)
    if target == current:
        return self._stored.reshape(rows, -1), target
    moved = self._stored.reshape((2,) * (sides * n)).transpose([current.index(q) for q in target])
    return np.ascontiguousarray(moved).reshape(rows, -1), target


def transposing_gather_sites(self, step):
    """An oracle for ``DensityMatrix._gather_sites`` that keeps nothing: the
    step's entry for the layout worked out afresh, its order checked
    against its definition (``site_target``), and the matrix in a fresh
    transposed copy, one bit per axis, or, when stored in that order
    already, the stored buffer."""
    n = self.n_qubits
    current = tuple(range(2 * n)) if self._order is None else self._order
    run = engine._site_run(n, self._order, step)
    assert run.order == site_target(n, current, step.support)
    if run.order == current:
        return self._stored.reshape(-1), run
    moved = self._stored.reshape((2,) * (2 * n)).transpose([current.index(q) for q in run.order])
    return np.ascontiguousarray(moved).reshape(-1), run


@pytest.mark.parametrize(
    "case", ["lih trajectories", "lih order 2 record_every 2", "ising noisy order 2"]
)
def test_each_step_holds_one_move_per_layout_it_meets(case, monkeypatch):
    """Steps shared by every trajectory of a run, and steps that meet two
    layouts (at order 2, where the palindrome runs each step after both
    of its neighbours, or between records that a statevector's ``data``
    read resets to canonical order), hold exactly one move per distinct
    layout they meet, a superoperator step in the site-pair layout too.
    Their records are bitwise those of a run that works every step's
    layout out afresh and moves the state by a fresh transposition."""
    if case == "lih trajectories":
        h, init = build_lih(), prepare_initial(InitialState.basis("110000"), 6)
        schedule, config = Schedule(dt=0.05, n_steps=3), RunConfig(
            noise=NoiseModel(1e-2, 2e-2), trajectories=3, seed=7
        )
    elif case == "lih order 2 record_every 2":
        h, init = build_lih(), prepare_initial(InitialState.basis("110000"), 6)
        schedule, config = Schedule(dt=0.05, n_steps=4, order=2), RunConfig(record_every=2)
    else:
        h = build_ising(4, 1.0, 1.2, 0.3)
        init = random_state(4, np.random.default_rng(5))
        schedule, config = Schedule(dt=0.05, n_steps=3, order=2), RunConfig(noise=NoiseModel(1e-3, 2e-3))
    met: dict[int, tuple] = {}
    gathers: list[int] = []

    def recording(gather):
        def recorded(self, step):
            _, layouts = met.setdefault(id(step), (step, set()))
            layouts.add((self.n_qubits, self._order))
            gathers.append(id(step))
            return gather(self, step)

        return recorded

    monkeypatch.setattr(engine._State, "_gather", recording(engine._State._gather))
    monkeypatch.setattr(DensityMatrix, "_gather_sites", recording(DensityMatrix._gather_sites))
    result = run_pite(h, init, schedule, config)
    counts = []
    for step, layouts in met.values():
        assert set(step.moves) == layouts
        counts.append(len(layouts))
    assert len(met) == len(h.terms)
    if config.trajectories:
        # each record flushes a trajectory's vector to canonical order, so
        # every step meets one layout in every trajectory and Trotter step
        assert set(counts) == {1}
        runs = config.trajectories * schedule.n_steps
        assert all(gathers.count(key) == runs for key in met)
    else:  # at order 2 a step runs after each of its two neighbours
        assert max(counts) >= 2
    monkeypatch.setattr(engine._State, "_gather", transposing_gather)
    monkeypatch.setattr(DensityMatrix, "_gather_sites", transposing_gather_sites)
    oracle = run_pite(h, init, schedule, config)
    assert [repr(r) for r in result.records] == [repr(r) for r in oracle.records]


@pytest.mark.parametrize("path", ["superop", "sandwich"])
def test_moving_between_stored_orders_equals_a_canonical_round_trip(path, monkeypatch):
    """Gathering a step's order from a matrix stored in a random order is
    bitwise the matrix scattered back to canonical order and gathered
    from there, and reading ``data`` afterwards gives the matrix back. A
    superoperator step meets random label orders and random site-pair
    orders (whose sites of S may form one run, so that nothing moves),
    a sandwich step random label orders. A noisy step down ``path`` on
    that support, run from the random order, stores the same order and
    equals ``full_kraus_step``."""
    model = NoiseModel(0.02, 0.03)
    letter_rng = np.random.default_rng(17)  # leaves the module's draws as they were
    force_path(monkeypatch, path)
    for n in range(1, 7):
        for trial in range(5):
            rho = random_density(n)
            order = tuple(rng.permutation(2 * n).tolist())
            size = int(rng.integers(1, n + 1))
            support = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            if path == "superop" and trial % 2:
                order = site_pairs(n, letter_rng.permutation(n).tolist())
            d = DensityMatrix(n, rho)
            d._stored, d._order = in_order(rho, order), order
            restored = copy.deepcopy(d).data
            assert np.array_equal(restored, rho) and restored.flags.c_contiguous
            if path == "superop":
                gathered, run = d._gather_sites(identity_superop_step(support))
                target = run.order
                assert target == site_target(n, order, support) and gathered.size == 4**n
                assert (run.move is None) == (target == order)
            else:
                gathered, target = d._gather(bare_step(support))
                assert target == step_target(n, order, support)
                assert gathered.shape[0] == 4**size
            assert np.array_equal(gathered.reshape(-1), in_order(rho, target))
            # a copy that in-place work can use, unless stored in the step's order
            assert gathered.flags.c_contiguous
            assert np.shares_memory(gathered, d._stored) == (target == order)
            d._stored, d._order = gathered, target
            assert np.array_equal(d.data, rho) and d.data.flags.c_contiguous
            if size > 3:  # a 4^k x 4^k superoperator is too large to lower
                continue
            letters = ["I"] * n
            for q in support:
                letters[q] = "XYZ"[int(letter_rng.integers(3))]
            circ = build_pauli_step(PauliTerm.from_string(0.4, "".join(letters)), 0.1)
            d = DensityMatrix(n, rho)
            step = lower_step(circ, d, model)
            assert step_path(step) == path and step.support == support
            d._adopt(model)  # owes nothing yet, so stays in canonical order
            d._stored, d._order = in_order(rho, order), order
            res = run_step_circuit(d, step)
            want, p0 = full_kraus_step(circ, rho, model)
            assert d._order == target
            assert res == pytest.approx(p0, rel=1e-12)
            assert np.abs(d.data - want).max() < 1e-12


def test_chain_of_mixed_step_paths_matches_the_kraus_oracle(monkeypatch):
    """Superoperator, sandwich and gate-list steps in turn on one noisy
    density matrix equal ``full_kraus_step`` after every step. Each step
    is lowered under its own forced path; the state is read through a deep
    copy, so the one under test keeps the order its last step left it in
    and is never put back in canonical order between steps."""
    model = NoiseModel(0.02, 0.03)
    n = 5
    circuits = [build_pauli_step(t, 0.1) for t in build_ising(n, 1.0, 1.2, 0.3).terms]
    circuits += [build_grouped_step(random_grouped_block(n, size), 0.2) for size in (2, 3, 3)]
    circuits.append(build_pauli_step(PauliTerm.from_string(0.4, "XYZZX"), 0.1))
    rho = random_density(n)
    d = DensityMatrix(n, rho)
    paths = list(STEP_PATHS)
    steps = []
    for i, circ in enumerate(circuits):
        force_path(monkeypatch, paths[i % len(paths)])
        steps.append(lower_step(circ, d, model))
    assert {step_path(s) for s in steps} == set(paths)
    orders = set()
    for _ in range(2):
        for circ, step in zip(circuits, steps):
            res = run_step_circuit(d, step)
            rho, p0 = full_kraus_step(circ, rho, model)
            assert res == pytest.approx(p0, rel=1e-12), step_path(step)
            assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12, step_path(step)
            orders.add(d._order)
    assert len(orders - {None}) > 5  # the state did move between orders
    assert np.abs(d.data - rho).max() < 1e-12


def test_stored_orders_keep_rows_and_columns_alike(monkeypatch):
    """Every order a fused step stores during noisy Ising n=5 and LiH
    runs keeps each qubit's row and column bits alike, as the partial
    traces and the diagonal rely on. A superoperator step stores a
    site-pair order (each qubit's row bit right before its column bit)
    in which S's sites form one contiguous run. A sandwich step puts the support's row bits first, then
    its column bits, and keeps the row bits and the column bits of the
    other qubits in one order (rho[:, ::rest+1])."""
    from pite_sim.hamiltonian import build_lih
    from pite_sim.pite import RunConfig, Schedule, run_pite

    stored = []
    run_step = DensityMatrix._run_step

    def recording(self, step, rng):
        result = run_step(self, step, rng)
        stored.append((self.n_qubits, step.support, self._order, type(step)))
        return result

    monkeypatch.setattr(DensityMatrix, "_run_step", recording)
    config = RunConfig(noise=NoiseModel(1e-3, 2e-3))
    ising = build_ising(5, 1.0, 1.2, 0.3)
    lih = build_lih()
    for h, init in (
        (ising, prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 5)),
        (lih, prepare_initial(InitialState.basis("110000"), 6)),
    ):
        run_pite(h, init, Schedule(dt=0.05, n_steps=2), config)
    assert {n for n, _, _, _ in stored} == {5, 6}
    assert len({order for _, _, order, _ in stored}) > 10
    forms = {form for _, _, _, form in stored}
    assert forms == {engine.SuperopStep, engine.MaskSandwichStep, engine.PassSandwichStep}
    for n, support, order, form in stored:
        rows = [q for q in order if q < n]
        assert rows == [q - n for q in order if q >= n], order
        if form is engine.SuperopStep:
            assert order == site_pairs(n, rows), order
            where = sorted(rows.index(q) for q in support)
            assert where == list(range(where[0], where[0] + len(support))), order
        else:
            assert tuple(rows[: len(support)]) == support == order[: len(support)], order


def owed_by_kraus(rho: np.ndarray, model: NoiseModel, counts) -> np.ndarray:
    """``model``'s channel applied counts[q] times to qubit q, as the sum
    over its Kraus operators embedded in the whole register."""
    n = len(counts)
    for q, m in enumerate(counts):
        ops = [on_register(e, (q,), n) for e in model.kraus_operators()]
        for _ in range(m):
            rho = sum(op @ rho @ op.conj().T for op in ops)
    return rho


# (support, site order a matrix is stored in, whether the support's sites
# form one run there): one-site steps inside and at either end, pairs in
# order and reversed, a pair and a triple apart, and a triple in order and
# in the order 4, 0, 2
SITE_CASES = [
    ((2,), (0, 1, 2, 3, 4), True),
    ((4,), (4, 3, 2, 1, 0), True),
    ((1, 2), (0, 1, 2, 3, 4), True),
    ((3, 4), (0, 1, 2, 3, 4), True),
    ((1, 2), (4, 2, 1, 0, 3), True),
    ((0, 4), (1, 4, 0, 2, 3), True),
    ((0, 3), (0, 1, 2, 3, 4), False),
    ((1, 2, 3), (0, 1, 2, 3, 4), True),
    ((0, 2, 4), (3, 4, 0, 2, 1), True),
    ((0, 2, 4), (0, 1, 2, 3, 4), False),
]


@pytest.mark.parametrize("start", ["canonical", "site-pair", "sandwich"])
@pytest.mark.parametrize("support, sites, run", SITE_CASES)
def test_superop_steps_in_the_site_layout_match_the_kraus_oracle(support, sites, run, start):
    """A noisy superoperator step on 1 to 3 sites, on a real and on a
    complex 5-qubit matrix owing random channel counts, stored in
    canonical order, in site-pair order (its sites one run there, in
    order or not, or apart) or as a sandwich step gathers it, equals
    ``full_kraus_step`` on the matrix with what it owes applied. It
    moves nothing when the matrix is in site-pair order and its sites
    form one run there, in whatever order; then T_S is permuted into
    that order. Else it moves S's sites first."""
    n, model = 5, NoiseModel(0.02, 0.03)
    local = np.random.default_rng(len(support) * 100 + sum(sites[:2]) * 10 + len(start))
    letters = ["I"] * n
    for q in support:
        letters[q] = "XYZ"[int(local.integers(3))]
    circ = build_pauli_step(PauliTerm.from_string(0.4, "".join(letters)), 0.1)
    complex_rho = random_density(n, local)
    orders = {
        "canonical": None,
        "site-pair": site_pairs(n, sites),
        "sandwich": step_target(n, tuple(range(2 * n)), tuple(q for q in sites[:2])),
    }
    order = orders[start]
    for rho in (complex_rho, complex_rho.real.copy()):
        d = DensityMatrix(n, rho)
        step = lower_step(circ, d, model)
        assert type(step) is engine.SuperopStep and step.support == support
        d._adopt(model)
        owed = local.integers(0, 4, size=n).tolist()
        d._owed = list(owed)
        if order is not None:
            d._stored, d._order = in_order(rho, order), order
        stored = d._stored
        res = run_step_circuit(d, step)
        want, p0 = full_kraus_step(circ, owed_by_kraus(rho, model, owed), model)
        assert res == pytest.approx(p0, rel=1e-12), letters
        assert np.abs(copy.deepcopy(d).data - want).max() < 1e-12, letters
        (entry,) = step.moves.values()
        in_place = start == "site-pair" and run
        assert (entry.move is None) == in_place and d._order == entry.order
        assert entry.order == site_target(n, order or tuple(range(2 * n)), support)
        if in_place:
            assert d._order == order and not np.shares_memory(d._stored, stored)
            assert entry.sites == tuple(q for q in sites if q in support)
        else:
            assert entry.sites == support and entry.before == 1


def test_superop_products_cut_into_pieces_match_the_kraus_oracle():
    """On a complex 7-qubit matrix in site-pair order, superoperator steps
    whose products exceed ``_GEMM_MAX`` multiply-adds run in pieces: a
    one-site step on site 5, multiplied from the right in row blocks,
    and a step on sites 0-2, multiplied in column blocks; a step on
    sites 0-1 runs as one product. Each equals ``full_kraus_step``."""
    n, model = 7, NoiseModel(0.02, 0.03)
    local = np.random.default_rng(2929)
    rho = random_density(n, local)
    d = DensityMatrix(n, rho)
    d._adopt(model)
    order = site_pairs(n, range(n))
    d._stored, d._order = in_order(rho, order), order
    # (term, the view shape of its product): 2 blocks of 512 rows of 4 x 8
    # floats, one product of 16 x 2048 floats, and 2 cuts (XYZ's T_S is
    # complex, so the matrix is multiplied as it is)
    cases = [("IIIIIZI", (2, 512, 32)), ("XZIIIII", (1, 16, 2048)), ("XYZIIII", (1, 64, 2, 128))]
    for axes, shape in cases:
        circ = build_pauli_step(PauliTerm.from_string(0.4, axes), 0.1)
        step = lower_step(circ, d, model)
        res = run_step_circuit(d, step)
        rho, p0 = full_kraus_step(circ, rho, model)
        (entry,) = step.moves.values()
        assert entry.move is None and [s for _, s, _ in entry.ops.values()] == [shape], axes
        assert res == pytest.approx(p0, rel=1e-12), axes
        assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12, axes


def test_reads_in_any_site_order_match_canonical_order():
    """A matrix stored in a random site-pair order, owing nothing or random
    channel counts, gives the same ``data`` (bitwise), ``trace()``,
    energy and ``subspace_weight`` as the same matrix in canonical
    order."""
    local = np.random.default_rng(1929)
    h = build_ising(5, 1.0, 1.2, 0.3)
    model = NoiseModel(0.02, 0.03)
    basis, _ = np.linalg.qr(local.standard_normal((32, 2)) + 1j * local.standard_normal((32, 2)))
    for trial in range(6):
        rho = random_density(5, local)
        owed = [0] * 5 if trial < 2 else local.integers(0, 4, size=5).tolist()
        canonical, moved = DensityMatrix(5, rho), DensityMatrix(5, rho)
        for d in (canonical, moved):
            d._adopt(model)
            d._owed = list(owed)
        order = site_pairs(5, local.permutation(5).tolist())
        moved._stored, moved._order = in_order(rho, order), order
        assert moved.trace() == pytest.approx(canonical.trace(), abs=1e-13)
        assert moved.expectation(h) == pytest.approx(canonical.expectation(h), rel=1e-13)
        assert moved.subspace_weight(basis) == pytest.approx(canonical.subspace_weight(basis), abs=1e-13)
        assert moved._order == order  # the reads moved nothing
        assert np.array_equal(moved.data, canonical.data)


def test_reading_data_restores_the_canonical_order():
    """Reading ``data`` puts a stored matrix back in canonical order: two
    reads return equal matrices and leave the order canonical."""
    model = NoiseModel(0.02, 0.03)
    d = DensityMatrix(4, random_density(4))
    for term in build_ising(4, 1.0, 1.2, 0.3).terms:
        run_circuit(d, build_pauli_step(term, 0.1), noise=model)
    assert d._order is not None
    first = d.data.copy()
    assert d._order is None and not any(d._owed)
    assert np.array_equal(d.data, first)
    assert d._order is None


def test_copy_keeps_the_stored_order_and_what_is_owed():
    """A copy taken mid-run moves and applies nothing: the original keeps
    its stored matrix, order and owed counts, the copy holds the same in
    buffers of its own, and both read the same ``data``, energy and trace.
    Evolving the copy leaves the original alone. A statevector copy keeps
    its stored order too."""
    model = NoiseModel(0.02, 0.03)
    h = build_ising(4, 1.0, 1.2, 0.3)
    d, s = DensityMatrix(4, random_density(4)), StateVector(4, random_state(4))
    for term in h.terms:
        run_circuit(d, build_pauli_step(term, 0.1), noise=model)
        run_circuit(s, build_pauli_step(term, 0.1))
    assert d._order is not None and any(d._owed) and s._order is not None
    stored, order, owed = d._stored.copy(), d._order, list(d._owed)
    twin = d.copy()
    assert (d._order, d._owed) == (order, owed) and np.array_equal(d._stored, stored)
    assert (twin._order, twin._owed, twin._noise) == (order, owed, d._noise)
    assert np.array_equal(twin._stored, stored) and not np.shares_memory(twin._stored, d._stored)
    assert twin._last is not d._last and twin._reads is not d._reads
    assert twin.expectation(h) == d.expectation(h) and twin.trace() == d.trace()
    assert np.array_equal(copy.deepcopy(twin).data, copy.deepcopy(d).data)
    run_circuit(twin, build_pauli_step(h.terms[0], 0.1), noise=model)
    assert (d._order, d._owed) == (order, owed) and np.array_equal(d._stored, stored)
    s_order, s_stored = s._order, s._stored.copy()
    s_twin = s.copy()
    assert s._order == s_twin._order == s_order and np.array_equal(s._stored, s_stored)
    assert np.array_equal(s_twin._stored, s_stored) and not np.shares_memory(s_twin._stored, s._stored)
    assert s_twin.expectation(h) == s.expectation(h)


def test_states_have_no_instance_dict():
    """Neither state type has an instance ``__dict__``, fresh, stepped,
    from ``copy()`` or from ``copy.copy``: the state classes are slotted,
    and a copy's hand-filled dict would slow every attribute read and
    write of a step on it."""
    model = NoiseModel(0.02, 0.03)
    term = build_ising(3, 1.0, 1.2, 0.3).terms[0]
    states = [StateVector(3), StateVector(3, random_state(3)), DensityMatrix(3),
              DensityMatrix(3, random_density(3))]
    for state in states:
        noise = model if isinstance(state, DensityMatrix) else None
        for s in (state, state.copy()):
            assert not hasattr(copy.copy(s), "__dict__"), type(s).__name__
            assert not hasattr(s, "__dict__"), type(s).__name__
            run_circuit(s, build_pauli_step(term, 0.1), noise=noise)
            assert not hasattr(s, "__dict__"), type(s).__name__
            assert not hasattr(s.copy(), "__dict__"), type(s).__name__


def test_owed_counts_follow_a_plain_per_qubit_count(monkeypatch):
    """The owed counts, kept as a clock and each qubit's last reading,
    equal a plain per-qubit count after every step of random sequences on
    noisy Ising n=5: steps of 1 to 5 qubits down every path, under two
    noise models and none, so that a step of the other model makes the
    state apply all it owes first and a noiseless step clears its support
    and adds nothing. A record (energy, trace, ground weight) changes no
    count; a ``data`` read clears them all. A copy taken mid-sequence
    counts alike and, evolved alike, reads the same ``data`` bitwise. At
    every record and ``data`` read the state equals ``full_kraus_step``
    run step by step."""
    n = 5
    h = build_ising(n, 1.0, 1.2, 0.3)
    hmat = sum((term_matrix(t) for t in h.terms), h.identity_offset * np.eye(2**n))
    basis = np.linalg.eigh(hmat)[1][:, :2]
    models = (NoiseModel(0.02, 0.03), NoiseModel(0.01, 0.05), None)
    circuits = [build_pauli_step(t, 0.1) for t in h.terms]
    circuits += [build_grouped_step(random_grouped_block(n, size), 0.2) for size in (3, 4)]
    circuits.append(build_pauli_step(PauliTerm.from_string(0.4, "XYZZX"), 0.1))
    local = np.random.default_rng(29)
    paths = list(STEP_PATHS)
    d = DensityMatrix(n, random_density(n, local))
    steps = []
    for i, circ in enumerate(circuits):
        for j, model in enumerate(models):
            force_path(monkeypatch, paths[(i + j) % len(paths)])
            steps.append((circ, lower_step(circ, d, model), model))
    assert {step_path(step) for _, step, _ in steps} == set(paths)

    def plain(counts: list[int], current, support, model) -> tuple[list[int], NoiseModel]:
        """The counts and model after a step: another model applies all
        that is owed first; the step clears its support and, when noisy,
        adds one application on every other qubit."""
        if model is not None and model != current:
            counts, current = [0] * n, model
        return [0 if q in support else m + (model is not None) for q, m in enumerate(counts)], current

    for sequence in range(3):
        d = DensityMatrix(n, random_density(n, local))
        rho, counts, current, twin = d.data.copy(), [0] * n, None, None
        for action in range(40):
            circ, step, model = steps[int(local.integers(len(steps)))]
            for state in (d, twin):
                if state is not None:
                    run_step_circuit(state, step)
            rho, _ = full_kraus_step(circ, rho, model or NoiseModel(0.0, 0.0))
            counts, current = plain(counts, current, step.support, model)
            assert d._owed == counts, (sequence, action)
            if twin is not None:
                assert twin._owed == counts and twin._order == d._order
            if action == 10 + sequence:
                twin = d.copy()
            if action % 7 == 3:  # a record
                assert d.expectation(h) == pytest.approx(np.trace(hmat @ rho).real, abs=1e-12)
                assert d.trace() == pytest.approx(1.0, abs=1e-12)
                ground = np.trace(basis.conj().T @ rho @ basis).real
                assert d.subspace_weight(basis) == pytest.approx(ground, abs=1e-12)
                assert d._owed == counts
            if action == 25:  # a data read
                assert np.abs(d.data - rho).max() < 1e-12
                counts = [0] * n
                assert d._owed == counts and np.array_equal(twin.data, d.data)
        assert np.abs(d.data - rho).max() < 1e-12
        assert np.array_equal(twin.data, d.data)


def test_sandwich_step_that_annihilates_keeps_the_channel_it_took_in_place(monkeypatch):
    """A sandwich step on a matrix stored in its own order applies what
    its support owes in the stored buffer itself, so it clears those
    counts at once: when its outcome then annihilates, the state still
    reads as the matrix with every owed application made once. Here qubit
    0 owes 2 and qubit 1 owes 1, and the step on qubit 0 keeps no weight
    (a controlled-Ry by pi from a matrix on qubit 0's |1>, with no jump
    branch at eps_d = 0)."""
    model = NoiseModel(0.1, 0.0)
    circ = Circuit(2, True, (ControlledRy(math.pi, 0, 2),), 1)
    force_path(monkeypatch, "sandwich")
    d = DensityMatrix(2)
    step = lower_step(circ, d, model)
    assert step_path(step) == "sandwich" and step.support == (0,)
    vectors = [np.array([0.0, 0.0, 0.6, 0.8]), np.array([0.0, 0.0, 0.8, -0.6])]
    rho = 0.7 * np.outer(vectors[0], vectors[0]) + 0.3 * np.outer(vectors[1], vectors[1])
    order = (0, 2, 1, 3)  # the step's own: S's row bit, its column bit, then the rest's
    d._stored, d._order, d._noise = in_order(rho, order), order, model
    d._owed = [2, 1]
    with pytest.raises(EvolutionAnnihilatedError):
        run_step_circuit(d, step)
    assert d._owed == [0, 1]
    assert np.abs(d.data - owed_by_kraus(rho, model, (2, 1))).max() < 1e-15


def test_sandwich_step_stores_its_superop_layout(monkeypatch):
    """A noisy sandwich step stores the matrix in the superoperator order
    of its support (S's row bits, S's column bits, then the rest's), so a
    second step on the same support gathers a view of the stored matrix
    and copies nothing. Both steps equal ``full_kraus_step``."""
    model = NoiseModel(0.02, 0.03)
    circ = build_pauli_step(PauliTerm.from_string(0.4, "IXYZX"), 0.2)
    rho = random_density(5)
    d = DensityMatrix(5, rho)
    step = lower_step(circ, d, model)
    assert step_path(step) == "sandwich"
    views = []
    gather = DensityMatrix._gather

    def recording(self, step):
        gathered, order = gather(self, step)
        views.append(np.shares_memory(gathered, self._stored))
        return gathered, order

    monkeypatch.setattr(DensityMatrix, "_gather", recording)
    for _ in range(2):
        run_step_circuit(d, step)
        assert d._order == step_target(5, tuple(range(10)), step.support)
        rho, _ = full_kraus_step(circ, rho, model)
        assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12
    assert views == [False, True]


def dense_adjoint_channel(a: np.ndarray, model: NoiseModel, counts) -> np.ndarray:
    """N^dag(A) = sum_k E_k^dag A E_k, applied counts[q] times on qubit q,
    from the model's Kraus operators embedded in the whole register."""
    n = len(counts)
    for q, m in enumerate(counts):
        ops = [on_register(e, (q,), n) for e in model.kraus_operators()]
        for _ in range(m):
            a = sum(op.conj().T @ a @ op for op in ops)
    return a


def test_adjoint_channel_matches_the_kraus_sum():
    """The X-mask diagonals of N^dag(H) and ``_channel`` with ``adjoint``
    equal N^dag built densely from the Kraus operators on n = 3, for a
    Y-heavy H and a random complex observable: entry (b ^ x, b) of N^dag(H)
    is d_x[b], and N^dag(H) has no entries off H's X masks."""
    model = NoiseModel(0.3, 0.2)
    h = y_heavy_hamiltonian(3, 12)
    dense_h = h.dense_matrix(include_offset=False)
    basis = np.arange(8)
    a = random_unitary(8)
    for counts in ((1, 0, 0), (0, 2, 1), (3, 1, 5), (2, 2, 2)):
        want = dense_adjoint_channel(dense_h, model, counts)
        seen = np.zeros((8, 8), dtype=bool)
        stack = engine._adjoint_diagonals(h, model, counts)
        masks = h.x_mask_stack[0]
        assert stack.shape == (len(masks), 8) and not stack.flags.writeable
        for x_mask, diagonal in zip(masks.tolist(), stack):
            assert np.abs(diagonal - want[basis ^ x_mask, basis]).max() < 1e-14, counts
            seen[basis ^ x_mask, basis] = True
        assert np.abs(want[~seen]).max(initial=0.0) < 1e-14
        got = a.copy()
        engine._channel(got, model, counts, adjoint=True)
        assert np.abs(got - dense_adjoint_channel(a, model, counts)).max() < 1e-14, counts


def moved_and_owing(monkeypatch, h: PauliHamiltonian, model: NoiseModel, paths) -> DensityMatrix:
    """A random complex density matrix after one noisy step of a random
    term of ``h`` down each of ``paths`` ("superop" takes a term on at
    most 3 qubits), so stored in the last step's order, then owing random
    counts of 0 to 5 applications per qubit."""
    n = h.n_qubits
    d = DensityMatrix(n, random_density(n))
    for path in paths:
        terms = [t for t in h.terms if path != "superop" or len(t.support) <= 3]
        force_path(monkeypatch, path)
        circ = build_pauli_step(terms[int(rng.integers(len(terms)))], 0.2)
        assert step_path(lower_step(circ, d, model)) == path
        run_circuit(d, circ, noise=model)
    d._owed = rng.integers(0, 6, size=n).tolist()
    return d


@pytest.mark.parametrize("name", ["lih", "ising6"])
def test_reads_without_a_flush_match_a_flushed_copy(name, monkeypatch):
    """The energy, trace and subspace weight of a density matrix stored in
    a step's order and owing channel applications equal those of a deep
    copy flushed to canonical order, and leave the stored matrix, its
    order, its counts and its model bitwise as they were. The stored
    orders come from mixed superoperator and sandwich steps (X-mask and
    pass form), the last one of either kind; LiH brings Y-heavy X masks."""
    from pite_sim.hamiltonian import build_lih

    h = build_lih() if name == "lih" else build_ising(6, 1.0, 1.2, 0.3)
    model = NoiseModel(0.02, 0.03)
    basis, _ = np.linalg.qr(rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
    for trial in range(6):
        paths = ("superop", "sandwich", "superop", "sandwich-pass")[trial % 2 : trial % 2 + 3]
        d = moved_and_owing(monkeypatch, h, model, paths)
        if trial == 0:
            d._owed = [0] * 6
        before = (d._stored.copy(), d._order, list(d._owed), d._noise)
        got = (d.expectation(h), d.trace(), d.subspace_weight(basis))
        assert np.array_equal(d._stored, before[0])
        assert (d._order, d._owed, d._noise) == before[1:]
        flushed = copy.deepcopy(d)
        flushed.data  # restores canonical order and applies what is owed
        assert flushed._order is None and not any(flushed._owed)
        want = (flushed.expectation(h), flushed.trace(), flushed.subspace_weight(basis))
        assert got[0] == pytest.approx(want[0], rel=1e-13), trial
        assert got[1] == pytest.approx(want[1], abs=1e-13), trial
        assert got[2] == pytest.approx(want[2], abs=1e-13), trial


def test_dimension_check_reads_no_state(monkeypatch):
    # a mismatched Hamiltonian raises before anything restores the order
    # or applies the owed channel
    d = moved_and_owing(monkeypatch, build_ising(4, 1.0, 1.2, 0.3), NoiseModel(0.02, 0.03),
                        ("superop", "sandwich"))
    order, owed = d._order, list(d._owed)
    with pytest.raises(ValueError, match="dimension"):
        d.expectation(build_ising(5, 1.0, 1.2, 0.3))
    assert (d._order, d._owed) == (order, owed) and any(owed)


def test_adjoint_reads_are_built_once_per_counts_and_order(monkeypatch):
    """A read builds its adjoint observable once for the owed counts and
    the stored order and keeps one per kind: a second read reuses it, a
    step replaces it, and the projector is never held twice."""
    builds = []
    build = engine._adjoint_projector
    monkeypatch.setattr(
        engine, "_adjoint_projector", lambda *args: builds.append(args[2:]) or build(*args)
    )
    h = build_ising(5, 1.0, 1.2, 0.3)
    model = NoiseModel(0.02, 0.03)
    basis = np.linalg.qr(rng.standard_normal((32, 2)))[0]
    d = moved_and_owing(monkeypatch, h, model, ("superop", "sandwich"))
    first = d.subspace_weight(basis)
    assert d.subspace_weight(basis) == first and len(builds) == 1
    run_circuit(d, build_pauli_step(h.terms[0], 0.1), noise=model)
    d.subspace_weight(basis)
    d.expectation(h)
    assert len(builds) == 2 and set(d._reads) == {"projector", "diagonals"}
    # the adjoint diagonals are a (masks, 2^n) stack; only a projector has 4^n entries
    assert len([e for e in d._reads.values() if e[2].size == 4**5]) == 1


def test_reads_in_another_order_move_the_projector_they_hold(monkeypatch):
    """A matrix moved into another order, owing the same counts, reads its
    subspace weight from the projector it holds moved into that order,
    bitwise the one built there, and its energy from the diagonals it
    holds: neither is built again, and both reads equal those before the
    move."""
    builds = []
    for name in ("_adjoint_projector", "_adjoint_diagonals"):
        build = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, _b=build, _n=name: builds.append(_n) or _b(*args))
    h = build_ising(5, 1.0, 1.2, 0.3)
    model = NoiseModel(0.02, 0.03)
    basis = np.linalg.qr(rng.standard_normal((32, 2)))[0]
    d = moved_and_owing(monkeypatch, h, model, ("superop", "sandwich"))
    weight, energy = d.subspace_weight(basis), d.expectation(h)
    assert sorted(builds) == ["_adjoint_diagonals", "_adjoint_projector"]
    canonical = transposed(d._stored, d._order, tuple(range(10))).reshape(32, 32)
    order = site_pairs(5, (3, 0, 4, 1, 2))
    d._stored, d._order = in_order(canonical, order), order
    assert d.subspace_weight(basis) == pytest.approx(weight, abs=1e-13)
    assert d.expectation(h) == pytest.approx(energy, rel=1e-13)
    assert len(builds) == 2 and d._reads["projector"][1][2] == order
    want = engine._adjoint_projector(basis, model, tuple(d._owed), order)
    assert d._reads["projector"][2].tobytes() == want.tobytes()


def test_gate_list_passes_run_in_the_buffers_they_own(monkeypatch):
    """A weight-7 gate-list step on an 8-qubit noisy density matrix runs
    each of Pre and Post, on S's row bits and then on its column bits, in
    one pass over the buffer it is handed: Pre in the gathered copy and
    Post in the weighted block. Only a gathered view of the stored state,
    when the matrix is already in the step's order, is copied first. The
    steps still equal ``full_kraus_step``."""
    calls = []
    product = engine._product

    def recording(a, x, overwrite=False, axes=None):
        out = product(a, x, overwrite, axes)
        if isinstance(a, tuple):
            calls.append(np.shares_memory(out, x))
        return out

    monkeypatch.setattr(engine, "_product", recording)
    model = NoiseModel(0.02, 0.03)
    circ = build_pauli_step(PauliTerm.from_string(0.4, "IZXYYZZX"), 0.2)
    rho = random_density(8)
    d = DensityMatrix(8, rho)
    step = lower_step(circ, d, model)
    assert step_path(step) == "gate-list"
    for want in ([True, True], [False, True]):
        calls.clear()
        run_step_circuit(d, step)
        assert calls == want
        rho, _ = full_kraus_step(circ, rho, model)
        assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12


def sandwich_of(op, rho: np.ndarray) -> np.ndarray:
    """m rho m^dag from ``_phased(m)`` = (a, phase_in, phase_out)."""
    a, phase_in, phase_out = op
    out = a @ (rho * (1 if phase_in is None else phase_in)) @ a.conj().T
    return out * (1 if phase_out is None else phase_out)


@pytest.mark.parametrize("side", ["column", "row"])
def test_phased_splits_a_real_matrix_from_its_phases(side):
    """m = a diag(d) (each column carries one phase) comes back as the
    real a and the factor d d^* before the products, m = diag(d) a as a
    and d d^* after them, when a comes out exactly real: here the phases
    are quarter turns, as an S or S^dag gives them. The factor cannot
    tell a global phase, so m is rebuilt up to one, and the sandwich it
    gives is m rho m^dag. Other phases leave a rounding-level imaginary
    part, and m comes back as it is or split, the sandwich the same. A
    matrix with mixed phases down a column and along a row, or a real
    one, comes back as it is."""
    for size in (2, 16, 64):
        # both a real and an imaginary phase, so that m is not real times
        # one global phase, which either side would split
        a, d = rng.standard_normal((size, size)), 1j ** rng.permutation(np.arange(size) % 4)
        m = a * d if side == "column" else d[:, None] * a
        op = real, phase_in, phase_out = engine._phased(m)
        assert real.dtype == np.float64 and real.flags.c_contiguous
        assert (phase_in is None, phase_out is None) == (side == "row", side == "column")
        factor = phase_in if side == "column" else phase_out
        rebuilt = real * factor[0].conj() if side == "column" else factor[:, 0, None] * real
        lead = np.unravel_index(np.abs(m).argmax(), m.shape)
        rebuilt *= m[lead] / rebuilt[lead]  # the global phase
        assert np.abs(rebuilt - m).max() < 1e-15, size
        rho = random_density(int(math.log2(size)))
        assert np.abs(sandwich_of(op, rho) - m @ rho @ m.conj().T).max() < 1e-13, size
        d = np.exp(1j * rng.uniform(-math.pi, math.pi, size))
        m = a * d if side == "column" else d[:, None] * a
        assert np.abs(sandwich_of(engine._phased(m), rho) - m @ rho @ m.conj().T).max() < 1e-13
    mixed = rng.standard_normal((4, 4)) * np.where(rng.random((4, 4)) < 0.5, 1, 1j)
    mixed[:2, 0], mixed[0, :2] = (1.0, 1j), (1.0, 1j)
    assert engine._phased(mixed)[0] is mixed and engine._phased(mixed)[1:] == (None, None)
    real = rng.standard_normal((4, 4))
    assert engine._phased(real)[0] is real


def test_product_runs_a_real_matrix_on_either_dtype():
    a = rng.standard_normal((16, 16))
    for x in (rng.standard_normal((16, 40)) + 1j * rng.standard_normal((16, 40)),
              rng.standard_normal((16, 40))):
        out = engine._product(a, x)
        assert out.dtype == x.dtype
        assert np.abs(out - a @ x).max() < 1e-15 * np.abs(a @ x).max() * 16
    x = rng.standard_normal((16, 40))
    assert np.abs(engine._product(a + 0.5j, x) - (a + 0.5j) @ x).max() < 1e-13


@pytest.mark.parametrize("start", ["real", "complex"])
def test_sandwich_chain_of_lih_y_terms_matches_the_kraus_oracle(start, monkeypatch):
    """LiH's Y terms run as sandwiches, whose operators come out real with
    a phase factor before (Pre_S) or after (Post_S) the products, and a
    chain of them equals ``full_kraus_step`` after every step, from a real
    and from a complex matrix, with the weight and the channel as one
    X-mask product (whose stack stays real: no phase folds into it) and
    as passes."""
    model = NoiseModel(1e-3, 2e-3)
    if start == "real":
        vecs = [v.real / np.linalg.norm(v.real) for v in (random_state(6) for _ in range(3))]
        start_rho = sum(w * np.outer(v, v) for w, v in zip((0.5, 0.3, 0.2), vecs))
    else:
        start_rho = random_density(6)
    for path in ("sandwich", "sandwich-pass"):
        force_path(monkeypatch, path)
        rho = start_rho
        d = DensityMatrix(6, rho)
        assert np.iscomplexobj(d._stored) == (start == "complex")
        for _ in range(2):
            for axes in ("IIYYXX", "ZIIYZY", "YXXZZY"):
                circ = build_pauli_step(PauliTerm.from_string(0.3, axes), 0.2)
                step = lower_step(circ, d, model)
                (a, phase_in, _), (b, _, phase_out) = step.pre, step.post
                assert a.dtype == b.dtype == np.float64
                assert phase_in is not None and phase_out is not None, axes
                assert step_path(step) == path
                if path == "sandwich":
                    assert step.stack.dtype == np.float64
                res = run_step_circuit(d, step)
                rho, p0 = full_kraus_step(circ, rho, model)
                assert res == pytest.approx(p0, rel=1e-12), (axes, path)
                assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12, (axes, path)


def phased_step(n: int, support: tuple[int, ...], angles) -> Circuit:
    """A step on ``support`` of an n-qubit register whose Pre ends with an
    S gate, so that Pre_S carries a phase per row (a ``phase_out``) and
    Post = Pre^dag one per column (a ``phase_in``): Hadamards, a CNOT
    chain, then S on the last qubit; the ancilla turned by one controlled
    y-rotation per support qubit."""
    ancilla = n
    pre = (*(Hadamard(q) for q in support),
           *(CNOT(a, b) for a, b in zip(support, support[1:])), PhaseS(support[-1]))
    rotation = tuple(ControlledRy(float(t), q, ancilla) for q, t in zip(support, angles))
    post = adjoint_sequence(pre)
    return Circuit(n, True, (*pre, *rotation, *post), len(pre) + len(rotation))


@pytest.mark.parametrize("start", ["real", "complex"])
@pytest.mark.parametrize("eps_d", [1e-5, 0.9, 1.0])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_mask_stack_step_matches_the_kraus_oracle(width, eps_d, start, monkeypatch):
    """A sandwich step whose weight and channel run as one product over
    X-mask blocks equals ``full_kraus_step`` on a 5-qubit register, for
    supports of 1 to 4 qubits, up to full relaxation (eps_d = 1), from a
    real and from a complex matrix: a Pauli term with Y factors (Pre_S
    with a ``phase_in``, Post_S with a ``phase_out``) and a step whose
    Pre_S has a ``phase_out`` and Post_S a ``phase_in``. Either way the
    stack is real and the phases stay in the sandwiches, as row
    scalings. The pass form of the same sandwich agrees too."""
    local = np.random.default_rng(100 * width + int(eps_d * 10))
    n = 5
    model = NoiseModel(0.0 if eps_d == 1.0 else 0.05, eps_d)
    support = tuple(sorted(local.choice(n, size=width, replace=False).tolist()))
    axes = ["I"] * n
    for i, q in enumerate(support):
        axes[q] = "Y" if i == 0 else "XYZ"[int(local.integers(3))]
    circuits = {
        "pauli": build_pauli_step(PauliTerm.from_string(0.7, "".join(axes)), 0.3),
        "phased": phased_step(n, support, local.uniform(-2.0, 2.0, size=width)),
    }
    if start == "real":
        vecs = [v.real / np.linalg.norm(v.real) for v in (random_state(n, local) for _ in range(3))]
        rho = sum(w * np.outer(v, v) for w, v in zip((0.5, 0.3, 0.2), vecs))
    else:
        rho = random_density(n, local)
    for name, circ in circuits.items():
        want, p0 = full_kraus_step(circ, rho, model)
        for path in ("sandwich", "sandwich-pass"):
            d = DensityMatrix(n, rho)
            force_path(monkeypatch, path)
            step = lower_step(circ, d, model)
            assert step_path(step) == path and step.support == support, (name, path)
            if path == "sandwich":
                assert step.stack.dtype == np.float64, name
            assert (step.pre[2] is not None, step.post[1] is not None) == ((name == "phased"),) * 2
            res = run_step_circuit(d, step)
            assert res == pytest.approx(p0, rel=1e-12), (name, path)
            assert np.abs(d.data - want).max() < 1e-12, (name, path)


@pytest.mark.parametrize("eps_d", [None, 1e-5, 0.9, 1.0])
def test_mask_stack_is_the_weight_then_the_channel(eps_d):
    """On random blocks, entry by entry: the X-mask stack of W equals
    rho * W, then ``_channel`` once on the k qubits, for k = 1 to 4,
    complex and real rho; the stack is real."""
    local = np.random.default_rng(41)
    model = None if eps_d is None else NoiseModel(0.0 if eps_d == 1.0 else 0.03, eps_d)
    for k in (1, 2, 3, 4):
        size = 2**k
        c = np.cos(local.uniform(0.0, math.pi, size))
        w = np.outer(c, c) + 0.2 * np.outer(1.0 - c, 1.0 - c)
        stack = engine._mask_stage(w, model)
        assert stack.shape == (size,) * 3 and stack.dtype == np.float64
        for rho in (local.standard_normal((size * size, 9)),
                    local.standard_normal((size * size, 9))
                    + 1j * local.standard_normal((size * size, 9))):
            want = rho * w.reshape(-1, 1)
            if model is not None:
                engine._channel(want, model, (1,) * k, columns=k)
            got = engine._by_mask(stack, rho)
            assert got.shape == rho.shape
            assert np.abs(got - want).max() < 1e-14 * np.abs(want).max() * size, k
    order, inverse = engine._mask_order(3)
    r, c = np.divmod(order, 8)
    assert np.array_equal(r ^ c, np.repeat(np.arange(8), 8))
    assert np.array_equal(order[inverse], np.arange(64))


@pytest.mark.parametrize("eps_r,eps_d", [(1e-5, 1e-5), (0.3, 0.2), (0.0, 1.0)])
def test_mask_stack_equals_the_kraus_sum_of_the_weight_then_the_channel(eps_r, eps_d):
    """The X-mask stack lowering builds from the shared channel part, laid
    out as one 4^k x 4^k matrix on S's entries, equals the dense oracle
    column by column for k = 1 to 4: each entry's unit matrix scaled by W,
    then the Kraus sum of the channel on every qubit (``kraus_channel``).
    At (0, 1) the channel's factor zeroes every |1><1| entry that its jump
    has not moved to |0><0| first, so the oracle pins the order of the
    two."""
    model = NoiseModel(eps_r, eps_d)
    local = np.random.default_rng(43)
    for k in (1, 2, 3, 4):
        size = 2**k
        theta = local.uniform(0.0, math.pi, size)
        w = engine._weights(np.cos(theta), np.sin(theta), eps_d)
        stack = engine._mask_stage(w, model)
        order, _ = engine._mask_order(k)
        got = np.zeros((size * size, size * size))
        for x in range(size):
            entries = order[x * size : (x + 1) * size]  # (r, r ^ x), by r
            got[np.ix_(entries, entries)] = stack[x]
        want = np.empty_like(got, dtype=complex)
        for column in range(size * size):
            unit = np.zeros(size * size)
            unit[column] = w.reshape(-1)[column]
            want[:, column] = kraus_channel(unit.reshape(size, size), model.kraus_operators()).reshape(-1)
        assert np.abs(got - want).max() < 1e-15, k


def test_x_mask_steps_share_one_read_only_channel_part(monkeypatch):
    """Lowering LiH's X-mask steps under a model and under an equal one (a
    distinct object) hands every step the one read-only channel part of
    its (k, model); under another model the steps get another part."""
    parts = []
    mask_channel = engine._mask_channel
    monkeypatch.setattr(engine, "_mask_channel",
                        lambda k, model: parts.append((k, model, mask_channel(k, model))) or parts[-1][2])
    circuits = [build_pauli_step(t, 0.05) for t in build_lih().terms]
    lowered = {}
    for name, model in (("a", NoiseModel(1e-5, 1e-5)), ("a again", NoiseModel(1e-5, 1e-5)),
                        ("b", NoiseModel(1e-3, 2e-3))):
        parts.clear()
        steps = [lower_step(c, DensityMatrix(6), model) for c in circuits]
        assert sum(type(s) is engine.MaskSandwichStep for s in steps) == len(parts) == 28
        assert {(k, m) for k, m, _ in parts} == {(4, model)}
        assert len({id(part) for _, _, part in parts}) == 1 and not parts[0][2].flags.writeable
        lowered[name] = parts[0][2]
    assert lowered["a"] is lowered["a again"]
    assert lowered["b"] is not lowered["a"] and not np.array_equal(lowered["b"], lowered["a"])


def sandwich_post_case(name: str) -> Circuit:
    """A step circuit on 4 of 5 qubits whose Post inverts Pre: per term
    with no Y factor (a real Pre_S), with one and with three (Pre_S real
    but for one phase per column), a Pre that ends with S (one phase per
    row, ``phased_step``), or grouped (Pre one complex DenseBlock, whose
    adjoint Post equals it by value)."""
    if name == "S last":
        return phased_step(5, (0, 1, 2, 4), (0.3, -0.7, 1.1, 0.4))
    if name == "grouped":
        local = np.random.default_rng(23)
        m = local.standard_normal((16, 16)) + 1j * local.standard_normal((16, 16))
        return build_grouped_step(GroupedBlock(5, (0, 1, 2, 4), (m + m.conj().T) / 2), 0.2)
    axes = {"no Y": "XZIZX", "one Y": "XYIZZ", "three Y": "YYIYZ"}[name]
    return build_pauli_step(PauliTerm.from_string(0.7, axes), 0.3)


@pytest.mark.parametrize("case, kind", [("no Y", "real"), ("one Y", "phase in"),
                                        ("three Y", "phase in"), ("S last", "phase out"),
                                        ("grouped", "complex")])
def test_post_triple_read_off_pre_gives_the_sandwich_of_the_built_post(case, kind, monkeypatch):
    """On an X-mask and on a pass-form step whose Post inverts Pre,
    lowering builds only Pre_S and reads Post's sandwich triple off Pre's
    (``_adjoint_phased``): a real matrix, a real one and the phase factor
    of Pre's other side, or a complex one. Its sandwich equals, bitwise,
    the one of ``_phased`` on Post_S = Pre_S^dag, on a real and a complex
    matrix."""
    circ = sandwich_post_case(case)
    ancilla = circ.ancilla
    pre = circ.gates[: next(i for i, g in enumerate(circ.gates) if ancilla in g.qubits)]
    support = tuple(sorted({q for g in circ.gates for q in g.qubits} - {ancilla}))
    assert circ.post_measure == adjoint_sequence(pre) and len(support) == 4
    want = engine._phased(np.ascontiguousarray(engine._on_support(pre, support).conj().T))
    built = []
    on_support = engine._on_support
    monkeypatch.setattr(engine, "_on_support", lambda g, s: built.append(g) or on_support(g, s))
    local = np.random.default_rng(17)
    shape = (4**4, 4)  # S's block on the leading axis, one qubit besides
    matrices = (local.standard_normal(shape),
                local.standard_normal(shape) + 1j * local.standard_normal(shape))
    for path in ("sandwich", "sandwich-pass"):
        force_path(monkeypatch, path)
        built.clear()
        step = lower_step(circ, DensityMatrix(5), NoiseModel(1e-3, 2e-3))
        assert step_path(step) == path and built == [pre]
        a, phase_in, phase_out = step.post
        assert a.dtype == (np.complex128 if kind == "complex" else np.float64)
        # Pre's phase factor on one side is Post's on the other
        assert (step.pre[1] is not None, phase_out is not None) == ((kind == "phase in"),) * 2
        assert (step.pre[2] is not None, phase_in is not None) == ((kind == "phase out"),) * 2
        for rho in matrices:
            got = engine._sandwich(step.post, rho, False)
            assert np.array_equal(got, engine._sandwich(want, rho, False)), (path, rho.dtype)


def test_post_from_the_adjoint_of_pre_is_the_kernel_built_post(monkeypatch):
    """Every H2, LiH and Ising n=4 Pauli step circuit has Post = Pre^dag
    as gates, so lowering takes Post_S as the conjugate transpose of Pre_S,
    which equals the one the kernels build bitwise; only Pre_S runs
    through the kernels. A step whose Post is not the adjoint of its Pre
    still has its Post_S built by the kernels. A noiseless statevector
    step builds no Post_S: Post's kernels run on diag(c_S) Pre_S."""
    from pite_sim.hamiltonian import build_lih

    built = []
    on_support = engine._on_support
    monkeypatch.setattr(engine, "_on_support", lambda g, s: built.append(g) or on_support(g, s))
    model = NoiseModel(1e-3, 2e-3)
    for h in (build_h2(0.75), build_lih(), build_ising(4, 1.0, 1.2, 0.3)):
        n = h.n_qubits
        for term in h.terms:
            circ = build_pauli_step(term, 0.1)
            # the kernels on Pre's and on Post's gates
            split = len(circ.pre_measure) - 1  # the rotation is one ControlledRy
            support = tuple(sorted({q for g in circ.gates for q in g.qubits} - {n}))
            pre_s = on_support(circ.pre_measure[:split], support)
            post_s = on_support(circ.post_measure, support)
            assert np.array_equal(pre_s.conj().T, post_s), term
            built.clear()
            step = lower_step(circ, StateVector(n), model)
            assert len(built) == 1 and np.array_equal(step.post, post_s), term
    ancilla = 2
    circ = Circuit(2, True, (Hadamard(0), CNOT(0, 1), ControlledRy(0.7, 1, ancilla), PauliX(0)), 3)
    for state in (StateVector(2), DensityMatrix(2)):
        built.clear()
        lower_step(circ, state, model)
        assert built == [circ.pre_measure[:2], circ.post_measure], type(state)
    built.clear()
    step = lower_step(circ, StateVector(2))
    assert built == [circ.pre_measure[:2]]
    k = postselected_operator(circ)
    psi = random_state(2)
    s = StateVector(2, psi)
    run_step_circuit(s, step)
    assert np.abs(s.data - k @ psi / np.linalg.norm(k @ psi)).max() < 1e-12


def rotate_pair_reference(v0: np.ndarray, v1: np.ndarray, m: np.ndarray) -> None:
    """A 2x2 matrix on a pair of views: a copy of v0, then each update in
    place."""
    x0 = v0.copy()
    v0 *= m[0, 0]
    v0 += m[0, 1] * v1
    v1 *= m[1, 1]
    v1 += m[1, 0] * x0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pair_kernels_match_the_reference_bitwise(dtype):
    """``_hadamard_pair`` forms the products and sums the reference forms
    with the Hadamard matrix ((-h) v1 is -(h v1) exactly): equal to the
    last bit, on strided views of real and of complex buffers."""
    h = engine._SQRT1_2
    m = np.array([[h, h], [h, -h]])
    for target in range(3):
        start = random_state(3)
        start = start.real.copy() if dtype is np.float64 else start
        kernel, reference = start.copy(), start.copy()
        engine._hadamard_pair(*engine._pair_views(kernel, target))
        rotate_pair_reference(*engine._pair_views(reference, target), m)
        assert np.array_equal(kernel, reference), target


def term_with_y_count(n: int, n_y: int, coeff: float) -> PauliTerm:
    """A random n-qubit Pauli string with exactly ``n_y`` Y factors."""
    while True:
        axes = [AXES_POOL[i] for i in rng.choice([0, 1, 3], size=n)]
        for q in rng.choice(n, size=n_y, replace=False):
            axes[q] = PauliAxis.Y
        if any(a is not PauliAxis.I for a in axes):
            return PauliTerm(coeff, tuple(axes))


def k0_oracle_terms() -> list[PauliTerm]:
    """Every term of H2, LiH and Ising n=4, then random 1-6-qubit terms
    with odd and with even Y counts, |c| log-uniform in [1e-6, 10]."""
    terms = [t for h in (build_h2(0.75), build_lih(), build_ising(4, 1.0, 1.2, 0.3)) for t in h.terms]
    for n in range(1, 7):
        for n_y in range(n + 1):
            for _ in range(3):
                coeff = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 1.0))
                terms.append(term_with_y_count(n, n_y, coeff))
    return terms


@pytest.mark.parametrize("dt", [0.013, 0.05, 0.2])
def test_noiseless_k0_is_real_exactly_when_its_y_count_is_even(dt):
    """The noiseless statevector K0 = Post_S diag(c_S) Pre_S, filled by
    ``engine._pauli_k0`` from the Pauli P' that Pre maps onto the pivot,
    is a I + b P' on S: real for an even number of Y factors and with an
    imaginary part (b i^#Y) for an odd one. P' is propagated as bit masks
    and a phase i^k, k even exactly for an even-Y term, so such a K0 is
    filled as float64 with no tolerance; every K0 matches the
    postselected operator of the circuit, whose unitary is contracted
    from the gates' definitions."""
    for term in k0_oracle_terms():
        circ = build_pauli_step(term, dt)
        step = lower_step(circ, StateVector(term.n_qubits))
        k0 = step.k0
        n_y = sum(a is PauliAxis.Y for a in term.axes)
        assert k0.dtype == (np.float64 if n_y % 2 == 0 else np.complex128), term
        want = postselected_operator(circ)
        assert np.abs(on_register(k0, step.support, term.n_qubits) - want).max() < 1e-14, term


def on_its_support(circ: Circuit, support: tuple[int, ...]) -> Circuit:
    """A per-term step circuit on its support alone: qubit support[i]
    relabelled i and the ancilla len(support), so that its dense oracle
    stays small on a wide register."""
    label = {q: i for i, q in enumerate(support)} | {circ.ancilla: len(support)}
    fields = ("qubit", "control", "target")
    gates = tuple(
        dataclasses.replace(g, **{f: label[getattr(g, f)] for f in fields if hasattr(g, f)})
        for g in circ.gates
    )
    return Circuit(len(support), True, gates, circ.measure_point)


def term_masks(term: PauliTerm) -> tuple[int, int, int]:
    """The term's X mask (X and Y factors) and Z mask (Z and Y factors) on
    its support, in the support's basis order, and its Y count."""
    support = term.support
    x = z = 0
    for i, q in enumerate(support):
        bit = 1 << (len(support) - 1 - i)
        x |= bit if term.axes[q] in (PauliAxis.X, PauliAxis.Y) else 0
        z |= bit if term.axes[q] in (PauliAxis.Z, PauliAxis.Y) else 0
    return x, z, sum(term.axes[q] is PauliAxis.Y for q in support)


@pytest.mark.parametrize("dt", [0.013, 0.2])
def test_per_term_k0_is_filled_from_the_pivot_pauli(dt, monkeypatch):
    """For every term of H2, LiH and Ising n=4, 8 and 10, and random 1-6
    qubit strings with Y factors and either sign of coefficient, the K0
    filled from P' = Pre^dag Z_pivot Pre equals the postselected operator
    of the step on its support within 1e-14 and has the dtype of the K0
    the kernels build. P' is -sign(c) times the term's own Pauli string
    (U c P U^dag = -|c| Z_pivot): the term's X and Z masks, phase
    #Y + (2 when c > 0), which checks ``synthesize_uk`` as well. A |c| so
    small that theta rounds to 0 leaves K0 = I, real for an odd Y count
    too, as the kernels build it."""
    terms = k0_oracle_terms() + [t for n in (8, 10) for t in build_ising(n, 1.0, 1.2, 0.3).terms]
    terms += [PauliTerm.from_string(1e-20, "XYZ"), PauliTerm.from_string(-1e-20, "IY")]
    k0s = []
    for term in terms:
        circ = build_pauli_step(term, dt)
        step = lower_step(circ, StateVector(term.n_qubits))
        assert type(step) is engine.K0Step and step.support == term.support, term
        want = postselected_operator(on_its_support(circ, step.support))
        assert np.abs(step.k0 - want).max() < 1e-14, term
        x, z, n_y = term_masks(term)
        rotation = circ.pre_measure[-1]
        pauli = engine._pivot_pauli(circ.pre_measure[:-1], rotation.control, step.support)
        assert pauli == (x, z, (n_y + 2 * (term.coeff > 0)) % 4), term
        k0s.append(step.k0)
    monkeypatch.setattr(engine, "_pauli_k0", lambda *args: None)  # the kernels build every K0
    for term, k0 in zip(terms, k0s):
        kernel_k0 = lower_step(build_pauli_step(term, dt), StateVector(term.n_qubits)).k0
        assert kernel_k0.dtype == k0.dtype, term


def random_clifford_step(n: int, n_gates: int, source: np.random.Generator) -> Circuit:
    """A step of the per-term shape whose Pre is ``n_gates`` random
    Hadamard, PhaseS, PhaseSdg, PauliX and CNOT gates on n qubits."""
    pre = []
    for _ in range(n_gates):
        kind = int(source.integers(5 if n > 1 else 4))
        if kind == 4:
            control, target = source.choice(n, size=2, replace=False)
            pre.append(CNOT(int(control), int(target)))
        else:
            pre.append((Hadamard, PhaseS, PhaseSdg, PauliX)[kind](int(source.integers(n))))
    pivot = pre[-1].qubit if kind < 4 else pre[-1].target
    gates = (*pre, ControlledRy(0.9, pivot, n), *adjoint_sequence(tuple(pre)))
    return Circuit(n, True, gates, len(pre) + 1)


def test_pivot_pauli_of_random_clifford_circuits(monkeypatch):
    """On random Clifford Pres, which put every conjugation rule to work
    (a Hadamard on a Y factor among them, which no synthesized U_k
    meets), i^phase X^x Z^z equals Pre^dag Z_pivot Pre from the gates'
    definitions, and the K0 filled from it equals the postselected
    operator, with the dtype of the K0 the kernels build."""
    source = np.random.default_rng(41)
    paulis = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}
    steps = [random_clifford_step(n, int(source.integers(1, 13)), source)
             for n in (1, 2, 3, 4) for _ in range(40)]
    k0s = []
    for circ in steps:
        n, pre = circ.n_work, circ.pre_measure[:-1]
        step = lower_step(circ, StateVector(n))
        k0s.append(step.k0)
        x, z, phase = engine._pivot_pauli(pre, circ.pre_measure[-1].control, step.support)
        k = len(step.support)
        mask = np.array([[1.0]])
        for i in range(k):
            bit = 1 << (k - 1 - i)
            mask = np.kron(mask, paulis["X" if x & bit else "I"] @ paulis["Z" if z & bit else "I"])
        u = gates_unitary(pre, n)
        z_pivot = on_register(paulis["Z"], (circ.pre_measure[-1].control,), n)
        want = u.conj().T @ z_pivot @ u
        assert np.abs(1j**phase * on_register(mask, step.support, n) - want).max() < 1e-14, circ
        assert np.abs(on_register(step.k0, step.support, n) - postselected_operator(circ)).max() < 1e-14
    monkeypatch.setattr(engine, "_pauli_k0", lambda *args: None)
    for circ, k0 in zip(steps, k0s):
        assert lower_step(circ, StateVector(circ.n_work)).k0.dtype == k0.dtype, circ


def test_every_per_term_noiseless_step_takes_the_pivot_pauli(monkeypatch):
    """Each noiseless statevector step of H2, LiH (all 61 terms) and Ising
    n=8 and 10 gets its K0 from ``_pauli_k0``, and no matrix is built by
    the kernels: a fall-back to them fails here, lowered one by one and in
    a LiH run."""
    from pite_sim import pite

    made = []
    pauli_k0 = engine._pauli_k0

    def spy(*args):
        made.append(pauli_k0(*args))
        return made[-1]

    def kernels(gates, support):
        raise AssertionError(f"the kernels built a matrix of {gates!r}")

    monkeypatch.setattr(engine, "_pauli_k0", spy)
    monkeypatch.setattr(engine, "_on_support", kernels)
    lih = build_lih()
    assert lih.n_terms == 61
    for h in (build_h2(0.75), lih, build_ising(8, 1.0, 1.2, 0.3), build_ising(10, 1.0, 1.2, 0.3)):
        for term in h.terms:
            step = lower_step(build_pauli_step(term, 0.05), StateVector(h.n_qubits))
            assert made[-1] is not None and step.k0 is made[-1], term
    made.clear()
    init = prepare_initial(InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")]), 6)
    assert pite.run_pite(lih, init, pite.Schedule(dt=0.05, n_steps=2)).completed
    assert len(made) == 61 and all(k0 is not None for k0 in made)


def off_the_pauli_shape() -> dict[str, Circuit]:
    """Two-qubit step circuits that the per-term K0 does not take: a dense
    block in Pre, a Post that is not Pre's adjoint, and a rotation that is
    an Ry, a ConditionalRy or two controlled-Rys; "pauli" is the shape
    itself, for the noisy and density-matrix steps."""
    pre = (Hadamard(0), PhaseSdg(1), Hadamard(1), CNOT(1, 0))
    post = adjoint_sequence(pre)
    cry = (ControlledRy(0.7, 0, 2),)
    dense = (DenseBlock((1, 0), random_unitary(4, np.random.default_rng(31))), *pre)

    def step(pre, rotation, post):
        return Circuit(2, True, (*pre, *rotation, *post), len(pre) + len(rotation))

    return {
        "pauli": step(pre, cry, post),
        "dense-block-pre": step(dense, cry, adjoint_sequence(dense)),
        "post-not-adjoint": step(pre, cry, (*post, PauliX(1))),
        "ry": step(pre, (Ry(0.7, 2),), post),
        "conditional-ry": step(pre, (ConditionalRy((0, 1), ((1, 0.4), (3, 1.1)), 2),), post),
        "two-rotations": step(pre, (*cry, ControlledRy(0.3, 1, 2)), post),
    }


@pytest.mark.parametrize("case", list(off_the_pauli_shape()))
def test_steps_off_the_pauli_shape_lower_through_the_kernels(case, monkeypatch):
    """Each circuit off the per-term shape, noiseless on a statevector,
    gets no K0 from ``_pauli_k0`` and has its matrices built by the
    kernels; so does every noisy statevector step and every density-matrix
    step, the per-term shape included. Each matches its oracle: the
    postselected operator, or ``full_kraus_step`` with noise (a
    trajectory's prob0 only)."""
    circ = off_the_pauli_shape()[case]
    made, built = [], []
    pauli_k0, on_support = engine._pauli_k0, engine._on_support
    monkeypatch.setattr(engine, "_pauli_k0", lambda *args: made.append(pauli_k0(*args)) or made[-1])
    monkeypatch.setattr(engine, "_on_support", lambda g, s: built.append(g) or on_support(g, s))
    psi = random_state(2, np.random.default_rng(37))
    rho = np.outer(psi, psi.conj())
    k = postselected_operator(circ)
    runs = [(StateVector, NoiseModel(0.1, 0.2)), (DensityMatrix, None), (DensityMatrix, NoiseModel(0.1, 0.2))]
    if case != "pauli":
        runs.append((StateVector, None))
    for state_type, noise in runs:
        made.clear()
        built.clear()
        state = state_type(2, rho if state_type is DensityMatrix else psi)
        step = lower_step(circ, state, noise)
        assert all(k0 is None for k0 in made) and built, (state_type, noise)
        prob0 = run_step_circuit(state, step, rng=make_rng(3))
        if noise is not None:
            want_rho, want = full_kraus_step(circ, rho, noise)
            if state_type is DensityMatrix:
                assert np.abs(state.data - want_rho).max() < 1e-12
        else:
            z = k @ psi
            want = float(np.vdot(z, z).real)
            if state_type is StateVector:
                assert made == [None] and np.abs(step.k0 - k).max() < 1e-14
                assert np.abs(state.data - z / np.linalg.norm(z)).max() < 1e-12
            else:
                assert np.abs(state.data - np.outer(z, z.conj()) / want).max() < 1e-12
        assert prob0 == pytest.approx(want, rel=1e-12), (state_type, noise)


def test_lowering_errors_keep_their_messages():
    """Both ``ValueError``s of ``lower_step`` read as they did before the
    per-term K0 path, and come before it, on a per-term circuit with a
    Hadamard on the ancilla before the measurement and with an Ry on a
    work qubit, on either state type, noiseless and noisy."""
    pre = (Hadamard(0), CNOT(1, 0))
    at_ancilla = Circuit(2, True, (*pre, ControlledRy(0.7, 0, 2), Hadamard(2), *pre), 4)
    on_work = Circuit(2, True, (*pre, ControlledRy(0.7, 0, 2), *pre, Ry(0.3, 1)), 3)
    messages = {
        at_ancilla: "step circuit has Hadamard(qubit=2) between its ancilla rotation and the "
        "measurement; only y-rotations targeting the ancilla may sit there",
        on_work: "step circuit has Ry(angle=0.3, qubit=1) on its work register, which no kernel "
        "runs; only Hadamard, PhaseS, PhaseSdg, PauliX, CNOT and DenseBlock gates may sit "
        "before the ancilla rotation or after the measurement",
    }
    for circ, message in messages.items():
        for state in (StateVector(2), DensityMatrix(2)):
            for noise in (None, NoiseModel(1e-3, 1e-3)):
                with pytest.raises(ValueError) as raised:
                    lower_step(circ, state, noise)
                assert str(raised.value) == message


@pytest.mark.parametrize("form", ["superop", "x-mask"])
def test_lowering_rejects_a_fused_channel_that_loses_trace(form, monkeypatch):
    """A density-matrix step reads prob0 as the trace of its output, so a
    fused channel that lost trace would pass for a smaller prob0, which no
    record could see. With ``_channel_superop`` (a superoperator step) or
    ``_mask_channel``, the channel part that an X-mask stack is built from,
    scaled by 1 - 1e-9, lowering raises ``AssertionError``, naming the
    operator; scaled by 1 - 1e-14, within the 1e-12 tolerance, it
    lowers."""
    circ = build_pauli_step(PauliTerm.from_string(0.4, "XZ"), 0.3)
    model = NoiseModel(0.1, 0.2)
    force_path(monkeypatch, STEP_FORMS[form][0])
    name, built = {"superop": ("_channel_superop", "T_S"),
                   "x-mask": ("_mask_channel", "the X-mask stack")}[form]
    exact = getattr(engine, name)
    for scale, raises in ((1.0 - 1e-14, False), (1.0 - 1e-9, True)):
        def lossy(*key, scale=scale):
            return scale * exact(*key)

        monkeypatch.setattr(engine, name, lossy)
        if not raises:
            assert type(lower_step(circ, DensityMatrix(2), model)) is STEP_FORMS[form][3]
            continue
        with pytest.raises(AssertionError) as raised:
            lower_step(circ, DensityMatrix(2), model)
        message = f"{built} does not keep the trace that W leaves: off by "
        assert re.fullmatch(re.escape(message) + r"\d\.\d{3}e-\d\d", str(raised.value)), raised.value


def test_noiseless_lih_run_stays_real(monkeypatch):
    """A noiseless LiH run from a real initial state keeps its stored state
    float64 through every one of its measurements, per term and over the
    22-set grouping, sampled: the two benchmarked statevector paths."""
    from pite_sim import pite
    from pite_sim.grouping import group_hamiltonian, lih_groupspec

    dtypes, k0_dtypes = set(), set()
    run = pite.run_step_circuit

    def recording(state, step, rng=None):
        result = run(state, step, rng)
        dtypes.add(state._stored.dtype)
        k0_dtypes.add(step.k0.dtype)
        return result

    monkeypatch.setattr(pite, "run_step_circuit", recording)
    h = build_lih()
    init = prepare_initial(InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")]), 6)
    schedule = pite.Schedule(dt=0.05, n_steps=20)
    runs = [
        pite.run_pite(h, init, schedule),
        pite.run_generalized(
            h, group_hamiltonian(h, lih_groupspec()), init, schedule, pite.RunConfig(mode="sample", seed=7)
        ),
    ]
    assert all(result.completed for result in runs)
    assert dtypes == k0_dtypes == {np.dtype(np.float64)}


def k0_boundary_step(k0: np.ndarray) -> engine.K0Step:
    """A hand-built noiseless statevector step whose K0 acts on qubit 0 of
    two."""
    return engine.K0Step((0,), k0)


def k0_boundary_states():
    """|00> as a float64 vector and as i|00>, a complex128 one, each with a
    float64 and a complex128 K0 factor (1 and i): all four K0 paths."""
    e0 = np.zeros(4)
    e0[0] = 1.0
    for vector in (e0, 1j * e0):
        for phase in (1.0, 1j):
            state = StateVector(2, vector)
            assert state._stored.dtype == (np.float64 if vector is e0 else np.complex128)
            yield state, phase


def k0_outcome_at(t: float):
    """Each K0 path's outcome for K0 = t I on |00>, whose prob0 is t^2:
    ("passes", prob0) or "annihilated", the latter leaving the state as
    it was."""
    outcomes = []
    for state, phase in k0_boundary_states():
        before = (state._stored.copy(), state._order, state._weight)
        try:
            result = run_step_circuit(state, k0_boundary_step(phase * t * np.eye(2)))
            outcomes.append(("passes", result))
        except EvolutionAnnihilatedError:
            assert np.array_equal(state._stored, before[0]) and (state._order, state._weight) == before[1:]
            outcomes.append("annihilated")
    return outcomes


def test_k0_outcome_at_the_annihilation_threshold(monkeypatch):
    """A K0 step whose prob0 is exactly the annihilation threshold passes,
    with that prob0, and one just below it raises, on each of the four K0
    paths. 1e-15 is no square of a float, so the module's threshold is
    checked between the two neighbouring squares t^2 < 1e-15 <= t'^2, and
    the exact boundary at a threshold set to 2^-50 = (2^-25)^2."""
    t = math.sqrt(engine.ANNIHILATION_THRESHOLD)
    while t * t >= engine.ANNIHILATION_THRESHOLD:
        t = math.nextafter(t, 0.0)
    above = math.nextafter(t, 1.0)
    assert k0_outcome_at(t) == ["annihilated"] * 4
    assert k0_outcome_at(above) == [("passes", above * above)] * 4
    monkeypatch.setattr(engine, "ANNIHILATION_THRESHOLD", 2.0**-50)
    assert k0_outcome_at(2.0**-25) == [("passes", 2.0**-50)] * 4
    assert k0_outcome_at(math.nextafter(2.0**-25, 0.0)) == ["annihilated"] * 4


def test_k0_outcome_clamps_rounding_and_raises_past_it():
    """On each K0 path, a prob0 over 1 by 5e-10 comes back as exactly 1.0,
    and one over 1 by 2e-9, or NaN, raises before the state changes."""
    for state, phase in k0_boundary_states():
        result = run_step_circuit(state, k0_boundary_step(phase * math.sqrt(1.0 + 5e-10) * np.eye(2)))
        assert result == 1.0 and type(result) is float
    for scale, match in ((math.sqrt(1.0 + 2e-9), "exceeds 1"), (math.nan, "is NaN")):
        for state, phase in k0_boundary_states():
            before = (state._stored.copy(), state._order, state._weight)
            with pytest.raises(ValueError, match=match):
                run_step_circuit(state, k0_boundary_step(phase * scale * np.eye(2)))
            assert np.array_equal(state._stored, before[0]) and (state._order, state._weight) == before[1:]


@pytest.mark.parametrize("axes", ["Y", "XY", "YZZ", "ZYYY"])
def test_odd_y_k0_on_a_real_vector_reports_the_squared_modulus(axes):
    """An odd-Y term's K0 is complex; on a real vector its branch z is
    complex, and prob0 is sum |z|^2, the postselected operator's weight,
    not the real dot's sum z^2, which differs by twice the weight on
    i b P."""
    term = PauliTerm.from_string(-0.8, "I" * (4 - len(axes)) + axes)
    circ = build_pauli_step(term, 0.3)
    psi = rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    state = StateVector(4, psi)
    step = lower_step(circ, state)
    assert step.k0.dtype == np.complex128 and state._stored.dtype == np.float64
    z = postselected_operator(circ) @ psi
    want = float(np.vdot(z, z).real)
    assert run_step_circuit(state, step) == pytest.approx(want, rel=1e-14)
    assert abs(float(np.sum(z * z).real) - want) > 1e-3


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES, ids=lambda g: type(g).__name__)
def test_gate_kernels_follow_a_permuted_axis_map(gate):
    """Through ``_product`` under an axis map that is not the identity
    (qubit q on axis position[q]), each gate is ``gates_unitary`` of it
    on the register permuted the same way; as a gate-list ``_sandwich``
    on a random, non-Hermitian matrix gathered as (4^3, rest^2) with a
    rest of 2, it is U rho U^dag on each block, and it writes nothing
    into a matrix the caller does not own."""
    position = {0: 2, 1: 0, 2: 1}
    placed = [q for _, q in sorted((a, q) for q, a in position.items())]  # qubit on each axis
    u = gates_unitary((gate,), 3).reshape((2,) * 6)
    u = u.transpose((*placed, *(3 + q for q in placed))).reshape(8, 8)
    for x in (rng.standard_normal((8, 5)), rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))):
        assert np.abs(engine._product((gate,), x, axes=position) - u @ x).max() < 1e-13
    blocks = rng.standard_normal((8, 8, 4)) + 1j * rng.standard_normal((8, 8, 4))
    rho = blocks.reshape(64, 4)
    before = rho.copy()
    out = engine._sandwich(((gate,), None, None), rho, False, position).reshape(8, 8, 4)
    want = np.einsum("ab,bcj,dc->adj", u, blocks, u.conj())
    assert np.abs(out - want).max() < 1e-13
    assert np.array_equal(rho, before)


def test_cached_arrays_are_read_only():
    h = build_h2(0.75)
    energies, vectors = eigensystem(h)
    cached = [
        energies,
        vectors,
        engine._channel_factors(NoiseModel(0.2, 0.3), (1, 2))[1],
        engine._channel_superop(NoiseModel(0.2, 0.3), (1, 2)),
        engine._diagonal_sites(3),
        engine._parities(3),
        *h.x_mask_stack,
    ]
    for arr in cached:
        # writes the same value back, so a writable array stays intact
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0].copy()


def test_expectation_h2_reference_values():
    h = build_h2(0.75)
    s = StateVector(2, prepare_initial(InitialState.basis("00"), 2))
    expected = -0.349833 + 2 * (-0.388748) + 0.0111772
    assert s.expectation(h) == pytest.approx(expected, abs=1e-12)
    assert s.expectation(h) == pytest.approx(-1.11615, abs=1e-5)


def test_expectation_on_ground_vector():
    from pite_sim.analysis import diagonalize

    h = build_h2(0.75)
    spec = diagonalize(h, prepare_initial(InitialState.basis("00"), 2))
    s = StateVector(2, spec.ground_basis[:, 0])
    assert s.expectation(h) == pytest.approx(spec.e0, abs=1e-10)


def test_expectation_classical_ising():
    h = build_ising(3, 1.0, 0.0, 0.0)
    s = StateVector(3)
    assert s.expectation(h) == pytest.approx(-3.0, abs=1e-12)


def test_density_expectation_matches_statevector():
    h = build_h2(0.75)
    psi = random_state(2)
    s = StateVector(2, psi)
    d = DensityMatrix(2, np.outer(psi, psi.conj()))
    assert d.expectation(h) == pytest.approx(s.expectation(h), abs=1e-12)


def y_heavy_hamiltonian(n: int, n_terms: int) -> PauliHamiltonian:
    """Random terms with Y on about half of the qubits, so that odd Y
    counts (an imaginary phase per term) are common."""
    pool = [PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Y, PauliAxis.Z, PauliAxis.Y]
    terms = []
    while len(terms) < n_terms:
        axes = tuple(pool[i] for i in rng.integers(0, len(pool), size=n))
        if any(a is not PauliAxis.I for a in axes):
            terms.append(PauliTerm(float(rng.uniform(-1.0, 1.0)), axes))
    return PauliHamiltonian(n, tuple(terms), identity_offset=0.37)


@pytest.mark.parametrize("name", ["h2", "lih", "y-heavy5"])
def test_oracle_pauli_apply_matches_the_kronecker_term_matrix(name):
    # the two oracles the expectation tests lean on agree term by term
    h = {
        "h2": lambda: build_h2(0.75),
        "lih": build_lih,
        "y-heavy5": lambda: y_heavy_hamiltonian(5, 30),
    }[name]()
    psi = random_state(h.n_qubits)
    for t in h.terms:
        want = term_matrix(t) @ psi
        assert np.abs(t.coeff * apply_pauli(t.axes, psi) - want).max() < 1e-14


@pytest.mark.parametrize("name", ["h2", "lih", "ising5", "y-heavy3", "y-heavy5"])
def test_bitmask_expectation_matches_pauli_strings_and_dense(name):
    from pite_sim.hamiltonian import build_lih

    h = {
        "h2": lambda: build_h2(0.75),
        "lih": build_lih,
        "ising5": lambda: build_ising(5, 1.0, 1.2, 0.3),
        "y-heavy3": lambda: y_heavy_hamiltonian(3, 12),
        "y-heavy5": lambda: y_heavy_hamiltonian(5, 30),
    }[name]()
    for _ in range(3):
        psi = random_state(h.n_qubits)
        s = StateVector(h.n_qubits, psi)
        by_strings = h.identity_offset + sum(
            t.coeff * np.vdot(psi, apply_pauli(t.axes, psi)).real for t in h.terms
        )
        dense = np.vdot(psi, h.dense_matrix() @ psi).real
        got = s.expectation(h)
        assert got == pytest.approx(by_strings, abs=1e-12)
        assert got == pytest.approx(dense, abs=1e-12)
    # real states stay on the real path
    real = StateVector(h.n_qubits, np.abs(random_state(h.n_qubits)))
    assert real.expectation(h) == pytest.approx(
        np.vdot(real.data, h.dense_matrix() @ real.data).real, abs=1e-12
    )
    # a density matrix sums d_x[b] rho[b, b ^ x] over the same diagonals,
    # on random complex mixed states and on a real one
    for rho in (random_density(h.n_qubits), random_density(h.n_qubits),
                np.outer(real.data, real.data)):
        dense = np.trace(h.dense_matrix() @ rho).real
        assert DensityMatrix(h.n_qubits, rho).expectation(h) == pytest.approx(dense, abs=1e-12)


def test_bitmask_expectation_in_several_parity_passes():
    # at 13 qubits the diagonals are built 8 terms per pass; the Ising
    # terms share X masks across passes, the Y-heavy ones bring phases
    ising, y_heavy = build_ising(13, 1.0, 1.2, 0.3), y_heavy_hamiltonian(13, 12)
    h = PauliHamiltonian(13, ising.terms + y_heavy.terms, identity_offset=0.37)
    psi = random_state(13)
    s = StateVector(13, psi)
    by_strings = h.identity_offset + sum(
        t.coeff * np.vdot(psi, apply_pauli(t.axes, psi)).real for t in h.terms
    )
    assert s.expectation(h) == pytest.approx(by_strings, abs=1e-11)


def dense_hamiltonian(h: PauliHamiltonian) -> np.ndarray:
    """H from the Kronecker products of its terms, offset included."""
    return sum(term_matrix(t) for t in h.terms) + h.identity_offset * np.eye(2**h.n_qubits)


ENERGY_MODELS = {
    "h2": lambda: build_h2(0.75),
    "lih": build_lih,
    "ising8": lambda: build_ising(8, 1.0, 1.2, 0.3),
    "y-heavy5": lambda: y_heavy_hamiltonian(5, 30),
}


@pytest.mark.parametrize("name", list(ENERGY_MODELS))
def test_one_gather_energy_matches_the_dense_hamiltonian(name):
    """The statevector energy, one gather over the stacked X-mask
    diagonals, equals <psi|H|psi> with H the Kronecker sum of the terms,
    within 1e-14 relative to the sum of |coeff| and |offset|, which
    bounds |E| (a random state's energy can sit near 0, and then the
    rounding of the terms, up to 3.8e-16 of that sum over 300 states a
    model, is large beside E): on a random complex and a random real unit
    vector, and on one left out of canonical order with a carried squared
    norm far from 1 by three unread K0 steps (random real and complex
    contractions on qubit subsets, checked against the same matrices on
    the register)."""
    h = ENERGY_MODELS[name]()
    n = h.n_qubits
    dense = dense_hamiltonian(h)
    tolerance = 1e-14 * (h.abs_coeff_sum + abs(h.identity_offset))
    _, index, stack = h.x_mask_stack
    distinct = {tuple(a in (PauliAxis.X, PauliAxis.Y) for a in t.axes) for t in h.terms}
    assert index.shape == stack.shape == (len(distinct), 2**n)
    assert stack.dtype == (np.complex128 if name == "y-heavy5" else np.float64)
    real = rng.standard_normal(2**n)
    for psi in (random_state(n), real / np.linalg.norm(real)):
        want = np.vdot(psi, dense @ psi).real
        assert abs(StateVector(n, psi).expectation(h) - want) <= tolerance
    psi = random_state(n)
    state = StateVector(n, psi)
    for support, cast in (((n - 1,), float), (tuple(range(n // 2)), complex), ((n - 1, 0), float)):
        k = len(support)
        k0 = rng.standard_normal((2**k, 2**k)) * (1.0 if cast is float else 1.0 + 1.0j)
        k0 *= 0.8 / np.linalg.norm(k0, 2)  # prob0 <= 0.64
        run_step_circuit(state, engine.K0Step(support, k0))
        psi = on_register(k0, support, n) @ psi
    assert state._order is not None and abs(state._weight - 1.0) > 1e-3
    psi /= np.linalg.norm(psi)
    want = np.vdot(psi, dense @ psi).real
    assert abs(state.expectation(h) - want) <= tolerance


@pytest.mark.parametrize("name", ["lih", "y-heavy5"])
def test_density_energy_with_owed_counts_matches_the_per_mask_sum(name, monkeypatch):
    """A density matrix stored in a step's order and owing channel
    applications reads its energy from one gather against the stacked
    adjoint diagonals; that equals the per-mask sum
    sum_x sum_b d_x[b] rho[b, b ^ x] over the rows of ``x_mask_stack`` on
    a flushed copy."""
    h = ENERGY_MODELS[name]()
    n = h.n_qubits
    basis = np.arange(2**n)
    masks, _, stack = h.x_mask_stack
    for trial in range(3):
        d = moved_and_owing(monkeypatch, h, NoiseModel(0.02, 0.03), ("superop", "sandwich"))
        assert d._order is not None and any(d._owed)
        got = d.expectation(h)
        rho = copy.deepcopy(d).data
        want = h.identity_offset * np.trace(rho).real + sum(
            np.dot(diagonal, rho[basis, basis ^ x_mask]).real
            for x_mask, diagonal in zip(masks.tolist(), stack)
        )
        assert got == pytest.approx(want, rel=1e-13), trial


def test_dense_step_oracle_basics():
    term = PauliTerm.from_string(0.7, "ZZ")
    ground = np.zeros(4)
    ground[0b01] = 1.0
    out = dense_step_oracle(term, 0.4, ground)
    assert np.abs(out - ground).max() < 1e-14
    psi = random_state(2)
    assert np.abs(dense_step_oracle(term, 0.0, psi) - psi).max() < 1e-14


def test_dense_step_oracle_vs_series_expansion():
    # independent cross-check: truncated series of the matrix exponential
    for _ in range(10):
        term = random_term(3)
        dt = float(rng.uniform(0.01, 0.5))
        psi = random_state(3)
        m = -term_matrix(term) * dt
        series = np.zeros_like(m)
        power = np.eye(8, dtype=complex)
        for k in range(30):
            series += power
            power = power @ m / (k + 1)
        want = series @ psi
        want /= np.linalg.norm(want)
        got = dense_step_oracle(term, dt, psi)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("trial", range(25))
def test_circuit_vs_oracle(trial):
    n = 4
    term = random_term(n)
    dt = float(rng.uniform(0.01, 0.5))
    k = postselected_operator(build_pauli_step(term, dt))
    psi = random_state(n)
    out = k @ psi
    out /= np.linalg.norm(out)
    want = dense_step_oracle(term, dt, psi)
    assert np.abs(out - want).max() < 1e-10


def test_pauli_step_closed_form_proportionality():
    # post-selected dense action is proportional to cosh - sinh * (ch/|c|)
    for _ in range(10):
        n = 3
        term = random_term(n)
        dt = float(rng.uniform(0.05, 0.4))
        k = postselected_operator(build_pauli_step(term, dt))
        x = abs(term.coeff) * dt
        closed = math.cosh(x) * np.eye(2**n) - math.sinh(x) * (
            term_matrix(term) / abs(term.coeff)
        )
        ratio = np.linalg.norm(k) / np.linalg.norm(closed)
        assert np.abs(k - ratio * closed).max() < 1e-10


def test_projection_amplitude_interpretation():
    # amplitude of the pivot |0> subspace after U equals the amplitude of
    # the eigenvalue -|c| subspace of c h
    for _ in range(10):
        n = 3
        term = random_term(n)
        from pite_sim.circuit import synthesize_uk

        syn = synthesize_uk(term)
        u = gates_unitary(syn.gates, n)
        psi = random_state(n)
        after = u @ psi
        sel = [slice(None)] * n
        sel[syn.pivot] = 0
        a0 = np.linalg.norm(after.reshape((2,) * n)[tuple(sel)])
        ch = term_matrix(term)
        proj = (np.eye(2**n) - ch / abs(term.coeff)) / 2.0  # eigenvalue -|c|
        assert a0 == pytest.approx(np.linalg.norm(proj @ psi), abs=1e-10)


def test_trajectory_kraus_statistics():
    # trajectory unraveling reproduces the channel on average
    model = NoiseModel(0.05, 0.1)
    psi = random_state(2)
    exact = DensityMatrix(2, np.outer(psi, psi.conj()))
    exact.apply_noise(model)
    acc = np.zeros((4, 4), dtype=complex)
    total_traj = 4000
    rng_local = make_rng(7)
    for _ in range(total_traj):
        s = StateVector(2, psi)
        # accumulate with branch weights folded in via the sampling itself
        s.sample_kraus(model, rng_local)
        acc += np.outer(s.data, s.data.conj())
    acc /= total_traj
    assert np.abs(acc - exact.data).max() < 0.05
