"""Tests for statevector/density-matrix execution, measurement and noise."""
import math

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
    build_grouped_step,
    build_ising_block_gates,
    build_pauli_step,
)
from pite_sim.engine import (
    DensityMatrix,
    EvolutionAnnihilatedError,
    NoiseModel,
    StateVector,
    dense_step_oracle,
    gates_unitary,
    make_rng,
    postselected_operator,
    run_step_circuit,
)
from pite_sim.grouping import GroupedBlock
from pite_sim.hamiltonian import (
    InitialState,
    PauliAxis,
    PauliTerm,
    build_h2,
    build_ising,
    prepare_initial,
)

rng = np.random.default_rng(99)
AXES_POOL = [PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Z]


def random_state(n: int) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
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


def random_unitary(dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


ALL_GATE_SAMPLES = [
    Hadamard(0),
    PhaseS(1),
    PhaseSdg(2),
    PauliX(1),
    CNOT(0, 2),
    CNOT(2, 0),
    Ry(0.83, 1),
    ControlledRy(1.21, 0, 2),
    ControlledRy(1.21, 2, 0),
    ConditionalRy((0, 2), ((1, 0.4), (3, 1.9)), 1),
    DenseBlock((1, 2), random_unitary(4)),
    DenseBlock((2, 0), random_unitary(4)),
]


def test_hadamard_on_zero():
    s = StateVector(1)
    s.apply_gate(Hadamard(0))
    assert np.allclose(s.data, np.array([1, 1]) / math.sqrt(2))


def test_cnot_on_basis():
    s = StateVector(2, np.array([0, 0, 1, 0]))  # |10>, qubit 0 is MSB
    s.apply_gate(CNOT(0, 1))
    assert np.allclose(s.data, [0, 0, 0, 1])  # |11>


def test_controlled_ry_pi():
    s = StateVector(2, np.array([0, 0, 1, 0]))  # control |1>, target |0>
    s.apply_gate(ControlledRy(math.pi, 0, 1))
    assert np.allclose(s.data, [0, 0, 0, 1])


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES)
def test_every_gate_preserves_norm(gate):
    s = StateVector(3, random_state(3))
    s.apply_gate(gate)
    assert abs(s.norm() - 1.0) < 1e-12


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
    res = run_step_circuit(s, circ)
    assert res.prob0 == pytest.approx(0.5, abs=1e-12)
    assert res.outcome == "postselected"
    assert abs(s.norm() - 1.0) < 1e-12
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_trivial_state_unchanged():
    work = random_state(2)
    s = StateVector(2, work)
    res = run_step_circuit(s, Circuit(n_work=2, has_ancilla=True, gates=(), measure_point=0))
    assert res.prob0 == pytest.approx(1.0)
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_prob_half_overlap():
    # |a0|^2 = |a1|^2 = 1/2 with |c| dt = 0.1: prob0 = (1 + e^{-0.4})/2
    term = PauliTerm.from_string(-1.0, "Z")
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    res = run_step_circuit(state, build_pauli_step(term, 0.1))
    expected = 0.5 * (1.0 + math.exp(-0.4))
    assert res.prob0 == pytest.approx(expected, rel=1e-12)
    assert res.prob0 == pytest.approx(0.83516, abs=1e-5)


def test_measure_sampling_replays():
    term = PauliTerm.from_string(1.0, "X")
    outcomes = []
    for _ in range(2):
        state = StateVector(1, np.array([1.0, 0.0]))
        rng_local = make_rng(1234)
        results = [
            run_step_circuit(state.copy(), build_pauli_step(term, 0.5), mode="sample", rng=rng_local).outcome
            for _ in range(20)
        ]
        outcomes.append(results)
    assert outcomes[0] == outcomes[1]
    assert "sampled-1" in outcomes[0]
    assert "sampled-0" in outcomes[0]


def test_annihilation_raises():
    # |0> is the excited eigenvector of +10 Z: prob0 = e^{-40} < 1e-15
    state = StateVector(1, np.array([1.0, 0.0]))
    circ = build_pauli_step(PauliTerm.from_string(10.0, "Z"), 1.0)
    with pytest.raises(EvolutionAnnihilatedError):
        run_step_circuit(state, circ)


def test_noisy_statevector_step_samples_the_channel():
    # a noisy statevector step is one sampled trajectory: the same draws as
    # the ancilla measurement (with its E2 branch) and then sample_kraus on
    # the work qubits, done by hand from the circuit's controlled rotation
    noise = NoiseModel(0.2, 0.3)
    work = random_state(2)
    circ = build_pauli_step(random_term(2), 0.3)
    rotation = circ.gates[circ.measure_point - 1]
    pivot_bit = (np.arange(4) >> (1 - rotation.control)) & 1
    c = np.where(pivot_bit, math.cos(rotation.angle / 2), 1.0)
    s = np.where(pivot_bit, math.sin(rotation.angle / 2), 0.0)
    for seed in range(5, 25):
        state = StateVector(2, work)
        res = run_step_circuit(state, circ, rng=make_rng(seed), noise=noise)
        by_hand = StateVector(2, work)
        rng_hand = make_rng(seed)
        by_hand.apply_gates(circ.gates[: circ.measure_point - 1])
        want = by_hand.measure_ancilla(c, s, noise.eps_d, rng=rng_hand)
        by_hand.sample_kraus(noise, rng_hand)
        by_hand.apply_gates(circ.post_measure)
        assert (res.prob0, res.outcome) == (want.prob0, want.outcome)
        assert np.abs(state.data - by_hand.data).max() < 1e-15
    with pytest.raises(ValueError, match="needs an rng"):
        run_step_circuit(StateVector(2, work), circ, noise=noise)


def test_measure_density_agrees_with_statevector():
    work = random_state(3)
    s = StateVector(3, work)
    d = DensityMatrix(3, np.outer(work, work.conj()))
    circ = build_pauli_step(random_term(3), 0.2)
    rs = run_step_circuit(s, circ)
    rd = run_step_circuit(d, circ)
    assert rs.prob0 == pytest.approx(rd.prob0, abs=1e-10)
    fid = np.real(np.vdot(s.data, d.data @ s.data))
    assert fid == pytest.approx(1.0, abs=1e-10)


def random_density(n: int) -> np.ndarray:
    """Mixed state of rank 3 (rank 2 on one qubit)."""
    vecs = [random_state(n) for _ in range(min(3, 2**n))]
    weights = rng.dirichlet(np.ones(len(vecs)))
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
        cases.append((f"ising-block-{g}-{h}", build_ising_block_gates(g, h, 0.2)))
    return cases


LOWERING_CASES = lowering_cases()


@pytest.mark.parametrize("circ", [c for _, c in LOWERING_CASES], ids=[i for i, _ in LOWERING_CASES])
def test_step_matches_postselected_operator(circ):
    """The work-register step equals the normalized ancilla-0 block of the
    full-circuit unitary, and prob0 its squared norm."""
    n = circ.n_work
    k = postselected_operator(circ)
    psi = random_state(n)
    s = StateVector(n, psi)
    res = run_step_circuit(s, circ)
    out = k @ psi
    assert res.prob0 == pytest.approx(float(np.vdot(out, out).real), rel=1e-12)
    assert np.abs(s.data - out / np.linalg.norm(out)).max() < 1e-12
    rho = random_density(n)
    d = DensityMatrix(n, rho)
    res = run_step_circuit(d, circ)
    branch = k @ rho @ k.conj().T
    p0 = float(np.trace(branch).real)
    assert res.prob0 == pytest.approx(p0, rel=1e-12)
    assert np.abs(d.data - branch / p0).max() < 1e-12


@pytest.mark.parametrize("eps_r,eps_d", [(0.3, 0.2), (0.0, 0.9), (1e-5, 1e-5)])
def test_noisy_step_matches_full_kraus_sum(eps_r, eps_d):
    """A noisy density-matrix step equals the (n+1)-qubit circuit with the
    channel on every qubit, ancilla included, projected on ancilla 0."""
    model = NoiseModel(eps_r, eps_d)
    circuits = [build_pauli_step(random_term(n), 0.3) for n in (1, 2, 3)]
    circuits += [
        build_grouped_step(random_grouped_block(3, 2), 0.3),
        build_ising_block_gates(1.2, 0.3, 0.3),
    ]
    for circ in circuits:
        n = circ.n_qubits
        rho_work = random_density(circ.n_work)
        full = np.kron(rho_work, np.diag([1.0, 0.0]))  # ancilla is the last qubit
        pre = gates_unitary(circ.pre_measure, n)
        rho = pre @ full @ pre.conj().T
        for q in range(n):
            ops = [np.kron(np.kron(np.eye(2**q), e), np.eye(2 ** (n - 1 - q)))
                   for e in model.kraus_operators()]
            rho = sum(op @ rho @ op.conj().T for op in ops)
        branch = rho[0::2, 0::2]
        p0 = float(np.trace(branch).real)
        post = gates_unitary(circ.post_measure, n)[0::2, 0::2]
        want = post @ branch @ post.conj().T / p0
        d = DensityMatrix(circ.n_work, rho_work)
        res = run_step_circuit(d, circ, noise=model)
        assert res.prob0 == pytest.approx(p0, rel=1e-12)
        assert np.abs(d.data - want).max() < 1e-12


def test_trajectories_unravel_the_noisy_step():
    """prob0 * psi psi^dag over single-step trajectories averages to the
    density matrix's unnormalized ancilla-0 branch."""
    noise = NoiseModel(0.2, 0.3)
    circ = build_pauli_step(PauliTerm.from_string(-0.9, "XY"), 0.4)
    psi = np.array([0.3 + 0.4j, -0.5, 0.2j, 0.6])
    psi /= np.linalg.norm(psi)
    d = DensityMatrix(2, np.outer(psi, psi.conj()))
    exact = run_step_circuit(d, circ, noise=noise).prob0 * d.data
    n_traj = 20_000
    samples = np.empty((n_traj, 4, 4), dtype=complex)
    rng_local = make_rng(11)
    for i in range(n_traj):
        s = StateVector(2, psi)
        res = run_step_circuit(s, circ, rng=rng_local, noise=noise)
        samples[i] = res.prob0 * np.outer(s.data, s.data.conj())
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
            run_step_circuit(StateVector(circ.n_work), circ)


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
        rho = np.outer(psi, psi.conj())
        for q in range(n):
            acc = np.zeros_like(rho)
            for e in model.kraus_operators():
                op = np.array([[1.0]], dtype=complex)
                for j in range(n):
                    op = np.kron(op, e if j == q else np.eye(2))
                acc += op @ rho @ op.conj().T
            rho = acc
        assert np.abs(d.data - rho).max() < 1e-14
        assert d.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(d.data - d.data.conj().T).max() < 1e-12


def test_cached_arrays_are_read_only():
    h = build_h2(0.75)
    energies, vectors = eigensystem(h)
    cached = [energies, vectors, engine._dense_of(h), engine._noise_scale_matrix(0.2, 0.3, 2)]
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
    s = StateVector(2, spec.ground_vector)
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
        m = -term.dense_matrix() * dt
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
            term.dense_matrix() / abs(term.coeff)
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
        u = gates_unitary(syn.circuit.gates, n)
        psi = random_state(n)
        after = u @ psi
        sel = [slice(None)] * n
        sel[syn.pivot] = 0
        a0 = np.linalg.norm(after.reshape((2,) * n)[tuple(sel)])
        ch = term.dense_matrix()
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
