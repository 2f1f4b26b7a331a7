"""Tests for statevector/density-matrix execution, measurement and noise."""
import copy
import dataclasses
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
from oracles import (
    apply_pauli,
    build_ising_block_gates,
    dense_step_oracle,
    gates_unitary,
    kraus_channel,
    on_register,
    postselected_operator,
    term_matrix,
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


def random_unitary(dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_circuit(state, circ, rng=None, noise=None):
    """Lower ``circ`` for ``state`` and run it once."""
    return run_step_circuit(state, lower_step(circ, state, noise), rng=rng)


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
    assert res.prob0 == pytest.approx(0.5, abs=1e-12)
    assert abs(np.linalg.norm(s.data) - 1.0) < 1e-12
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_trivial_state_unchanged():
    work = random_state(2)
    s = StateVector(2, work)
    res = run_circuit(s, Circuit(n_work=2, has_ancilla=True, gates=(), measure_point=0))
    assert res.prob0 == pytest.approx(1.0)
    assert np.abs(s.data - work).max() < 1e-12


def test_measure_prob_half_overlap():
    # |a0|^2 = |a1|^2 = 1/2 with |c| dt = 0.1: prob0 = (1 + e^{-0.4})/2
    term = PauliTerm.from_string(-1.0, "Z")
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    res = run_circuit(state, build_pauli_step(term, 0.1))
    expected = 0.5 * (1.0 + math.exp(-0.4))
    assert res.prob0 == pytest.approx(expected, rel=1e-12)
    assert res.prob0 == pytest.approx(0.83516, abs=1e-5)


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
        assert res.prob0 == pytest.approx(want.prob0, rel=1e-12)
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
    assert rs.prob0 == pytest.approx(rd.prob0, abs=1e-10)
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
        cases.append((f"ising-block-{g}-{h}", build_ising_block_gates(g, h, 0.2)))
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


def step_path(step) -> str:
    """The path a lowered step runs down, in ``STEP_PATHS``' names."""
    # (Pre, (c_S, s_S), Post); a fused trajectory holds Pre_S as an array
    if type(step.ops[1]) is tuple and not isinstance(step.ops[0], np.ndarray):
        return "gate-list"
    if step.state_type is not DensityMatrix:
        return "fused"
    if len(step.ops) == 2:
        return "superop"
    return "sandwich" if isinstance(step.ops[1], engine._MaskStage) else "sandwich-pass"


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
        assert res.prob0 == pytest.approx(float(np.vdot(out, out).real), rel=1e-12), path
        assert np.abs(s.data - out / np.linalg.norm(out)).max() < 1e-12, path
        d = DensityMatrix(n, rho)
        res = path_step(monkeypatch, path, circ, d)
        assert res.prob0 == pytest.approx(p0, rel=1e-12), path
        assert np.abs(d.data - branch / p0).max() < 1e-12, path


def full_kraus_step(circ, rho_work, model):
    """Oracle of a noisy density-matrix step: the (n+1)-qubit circuit with
    the channel on every qubit at once, ancilla included, projected on
    ancilla 0. Returns the normalized work-register state and prob0."""
    n = circ.n_qubits
    full = np.kron(rho_work, np.diag([1.0, 0.0]))  # ancilla is the last qubit
    pre = gates_unitary(circ.pre_measure, n)
    branch = kraus_channel(pre @ full @ pre.conj().T, model.kraus_operators())[0::2, 0::2]
    p0 = float(np.trace(branch).real)
    post = gates_unitary(circ.post_measure, n)[0::2, 0::2]
    return post @ branch @ post.conj().T / p0, p0


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
        build_ising_block_gates(1.2, 0.3, 0.3),
    ]
    for circ in circuits:
        n = circ.n_qubits
        rho_work = random_density(circ.n_work)
        want, p0 = full_kraus_step(circ, rho_work, model)
        for path in STEP_PATHS:
            d = DensityMatrix(circ.n_work, rho_work)
            res = path_step(monkeypatch, path, circ, d, noise=model)
            assert res.prob0 == pytest.approx(p0, rel=1e-12), path
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
                assert res.prob0 == pytest.approx(prob0, rel=1e-12), path
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
            assert res.prob0 == pytest.approx(p0, rel=1e-12), (path, model)
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
    """The arrays a lowered step's ops hold, nested tuples and gates opened."""
    if isinstance(ops, np.ndarray):
        return [ops]
    if isinstance(ops, DenseBlock):
        return [ops.matrix]
    if isinstance(ops, tuple):
        return [a for op in ops for a in arrays_in(op)]
    return []


def test_wide_support_runs_its_gate_list():
    """A step wider than FUSED_MAX_SUPPORT holds its gate lists, relabelled
    onto S, and (c_S, s_S) on S, on every state type, where its fused
    operators would grow as 4^|S|: no array it holds has more than
    4^FUSED_MAX_SUPPORT entries. A weight-10 Z string on 10 qubits then
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
            assert max(a.size for a in arrays_in(step.ops)) <= 4**cut
            if width > cut:
                c, s = step.ops[1]
                assert c.shape == s.shape == (2**width,)
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
        assert res.prob0 == pytest.approx(p0, rel=1e-12), i
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
        assert res.prob0 == pytest.approx(prob0, rel=1e-12)
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
        assert abs(res.prob0 - prob0) < 1e-12, i
        assert np.abs(state.copy().data - psi).max() < 1e-12, i
    assert rng_run.random() == rng_hand.random()


@pytest.mark.parametrize("form", ["k0", "gate-list", "trajectory"])
def test_chain_with_no_read_rescales_before_it_underflows(form):
    """A hand-built step whose ancilla Ry is uncontrolled keeps every state
    as it is with prob0 = cos^2(theta/2) = 0.01 (c^2 + eps_d s^2 on a
    trajectory). 200 such steps with no read in between would shrink the
    carried squared norm to about 1e-400, below the smallest float, so a
    step rescales it first: ``data`` is finite, unit-norm and the start
    state. Pre is a CNOT chain and a Hadamard, and Post its inverse, on 3
    work qubits (a fused K0 = c I) or on 8 (a gate list); a trajectory
    step has neither, and samples the channel on |000>, which every
    branch keeps."""
    theta = 2.0 * math.acos(0.1)
    n = 8 if form == "gate-list" else 3
    chain = () if form == "trajectory" else (*(CNOT(q, q + 1) for q in range(n - 1)), Hadamard(0))
    circ = Circuit(n_work=n, has_ancilla=True, measure_point=len(chain) + 1,
                   gates=(*chain, Ry(theta, n), *reversed(chain)))
    noise = NoiseModel(0.2, 1e-3) if form == "trajectory" else None
    start = np.eye(2**n)[0] if noise is not None else random_state(n, np.random.default_rng(6))
    state = StateVector(n, start)
    step = lower_step(circ, state, noise)
    assert step_path(step) == ("gate-list" if form == "gate-list" else "fused")
    want = 0.01 + (0.0 if noise is None else 1e-3 * 0.99)
    draws = make_rng(3)
    for _ in range(200):
        assert run_step_circuit(state, step, rng=draws).prob0 == pytest.approx(want, rel=1e-12)
    data = state.data
    assert np.isfinite(data).all() and abs(np.linalg.norm(data) - 1.0) < 1e-12
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
            assert step.ops[0].shape == (4**width, 4**width)
        if want == "sandwich":
            assert step.ops[1].stack.shape == (2**width,) * 3


def test_rotation_reading_outside_the_support_is_rejected():
    # (c, s) of a rotation controlled on qubit 1 do not factor through S = (0,)
    with pytest.raises(ValueError, match="outside the step's support"):
        engine._fold_rotation((ControlledRy(0.4, 1, 2),), (0,), 2)


def test_fold_rotation_matches_the_rotation_run_gate_by_gate():
    # (c, s) summed from the gates' angles against the old construction:
    # the relabelled gates run on the probe sum_x |x>|0> by the kernels
    support, ancilla = (0, 2, 3), 4
    rotation = (
        Ry(0.3, ancilla),
        ControlledRy(0.7, 2, ancilla),
        ConditionalRy((3, 0), ((0, 0.2), (2, -1.1), (3, 0.5)), ancilla),
        ConditionalRy(support, tuple((x, 0.1 * x - 0.3) for x in range(8)), ancilla),
        ControlledRy(-0.4, 0, ancilla),
    )
    c, s = engine._fold_rotation(rotation, support, ancilla)
    position = {q: i for i, q in enumerate((*support, ancilla))}
    probe = np.zeros(16)
    probe[0::2] = 1.0
    for g in rotation:
        engine._apply_gate_flat(probe, 4, engine._relabel(g, position), range(4), False)
    assert np.abs(c - probe[0::2]).max() < 1e-15
    assert np.abs(s - probe[1::2]).max() < 1e-15


def test_step_lowered_for_another_state_type_is_rejected():
    circ = build_pauli_step(PauliTerm.from_string(0.5, "XZ"), 0.1)
    step = lower_step(circ, StateVector(2))
    with pytest.raises(TypeError, match="lowered for StateVector"):
        run_step_circuit(DensityMatrix(2), step)


def test_outcome_rule_clamps_thresholds_and_draws_once():
    class FixedRng:
        def __init__(self, r):
            self.r, self.draws = r, 0

        def random(self):
            self.draws += 1
            return self.r

    res, jump = engine._outcome(1.0, 1e-9, None, False)
    assert (res.prob0, jump) == (1.0, False)
    with pytest.raises(ValueError, match="exceeds 1"):
        engine._outcome(1.0, 2e-9, None, False)
    with pytest.raises(EvolutionAnnihilatedError):
        engine._outcome(6e-16, 3e-16, None, False)
    # a trajectory's branch takes one draw: r prob0 >= kept picks the jump
    rng_fixed = FixedRng(0.9)
    res, jump = engine._outcome(0.5, 0.25, rng_fixed, True)
    assert (res.prob0, jump, rng_fixed.draws) == (0.75, True, 1)


def test_step_whose_outcome_weight_exceeds_one_raises():
    """A hand-built step whose outcome-0 weight exceeds 1 is no
    measurement, and raises on either state type, before the state
    changes."""
    psi, rho = random_state(2), random_density(2)
    steps = [
        (StateVector(2, psi), engine.BoundStep(StateVector, None, (0, 1), (1.01 * np.eye(4), None, None))),
        (DensityMatrix(2, rho), engine.BoundStep(DensityMatrix, None, (0, 1), (None, np.full((4, 4), 1.01), None))),
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
        engine._outcome(math.nan, 0.0, None, False)


def test_measure_ancilla_jump_branch_needs_rng():
    # a noisy ancilla on a statevector samples its branch: no rng is a
    # ValueError, raised before the state changes
    psi = random_state(2)
    s = StateVector(2, psi)
    with pytest.raises(ValueError, match="needs an rng"):
        s.measure_ancilla(np.full(4, 0.8), np.full(4, 0.6), eps_d=0.1)
    assert np.array_equal(s.data, psi)


def test_trajectories_unravel_the_noisy_step():
    """prob0 * psi psi^dag over single-step trajectories averages to the
    density matrix's unnormalized ancilla-0 branch."""
    noise = NoiseModel(0.2, 0.3)
    circ = build_pauli_step(PauliTerm.from_string(-0.9, "XY"), 0.4)
    psi = np.array([0.3 + 0.4j, -0.5, 0.2j, 0.6])
    psi /= np.linalg.norm(psi)
    d = DensityMatrix(2, np.outer(psi, psi.conj()))
    exact = run_circuit(d, circ, noise=noise).prob0 * d.data
    n_traj = 20_000
    samples = np.empty((n_traj, 4, 4), dtype=complex)
    rng_local = make_rng(11)
    for i in range(n_traj):
        s = StateVector(2, psi)
        res = run_circuit(s, circ, rng=rng_local, noise=noise)
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
            assert res.prob0 == pytest.approx(p0, rel=1e-13)
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
    """``_channel_superop`` on the vectorized blocks of the leading qubits
    (a density matrix gathered for a superoperator step) equals
    ``_channel`` on the whole matrix, for several owed counts."""
    model = NoiseModel(0.3, 0.2)
    rho = random_density(3)
    for counts in ((1,), (2, 0), (1, 3), (0, 1, 4)):
        want = rho.copy()
        engine._channel(want, model, counts)
        d = DensityMatrix(3, rho)
        gathered, order = d._gather(tuple(range(len(counts))))
        d._stored, d._order = engine._channel_superop(model, counts) @ gathered, order
        assert np.abs(d.data - want).max() < 1e-14, counts


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


def test_gather_moves_nothing_when_the_state_is_stored_in_the_step_order(monkeypatch):
    """A state stored in a step's order already hands back its stored
    array reshaped, with no order looked up: a vector whose order leads
    with S (after a step on the same support, or on a wider one that S
    leads), and a matrix stored as S's rows, S's columns, then the other
    rows and their columns. A matrix whose S block leads but whose other
    columns come before their rows still moves, into the step's order."""
    n, support = 4, (1, 2, 3)
    circ = build_pauli_step(PauliTerm.from_string(0.4, "IXZY"), 0.1)
    local = np.random.default_rng(8)
    s = StateVector(n, random_state(n, local))
    run_circuit(s, circ)
    rho = random_density(n, local)
    d = DensityMatrix(n, rho)
    run_circuit(d, circ, noise=NoiseModel(0.02, 0.03))
    assert s._order == (1, 2, 3, 0) and d._order == step_target(n, tuple(range(2 * n)), support)
    lookup = engine._step_order
    monkeypatch.setattr(engine, "_step_order", lambda *args: pytest.fail("an order was looked up"))
    for state, on in ((s, support), (s, (1, 2)), (d, support)):
        order = state._order
        gathered, target = state._gather(on)
        assert target == order and np.shares_memory(gathered, state._stored)
        assert gathered.shape == (2 ** (len(on) * state._sides), 2 ** ((n - len(on)) * state._sides))
    monkeypatch.setattr(engine, "_step_order", lookup)
    order = (1, 2, 3, 5, 6, 7, 4, 0)  # the rest's column before its row
    d = DensityMatrix(n, rho)
    d._stored, d._order = in_order(rho, order), order
    gathered, target = d._gather(support)
    assert target == step_target(n, order, support) == (1, 2, 3, 5, 6, 7, 0, 4)
    assert np.array_equal(gathered.reshape(-1), in_order(rho, target))


@pytest.mark.parametrize("path", ["superop", "sandwich"])
def test_moving_between_stored_orders_equals_a_canonical_round_trip(path, monkeypatch):
    """Gathering a step's order from a matrix stored in a random order is
    bitwise the matrix scattered back to canonical order and gathered
    from there, and reading ``data`` afterwards gives the matrix back.
    A noisy step down ``path`` on that support, run from the random
    order, stores the same order and equals ``full_kraus_step``."""
    model = NoiseModel(0.02, 0.03)
    letter_rng = np.random.default_rng(17)  # leaves the module's draws as they were
    force_path(monkeypatch, path)
    for n in range(1, 7):
        for _ in range(5):
            rho = random_density(n)
            order = tuple(rng.permutation(2 * n).tolist())
            size = int(rng.integers(1, n + 1))
            support = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            d = DensityMatrix(n, rho)
            d._stored, d._order = in_order(rho, order), order
            restored = copy.deepcopy(d).data
            assert np.array_equal(restored, rho) and restored.flags.c_contiguous
            gathered, target = d._gather(support)
            assert target == step_target(n, order, support)
            assert gathered.shape[0] == 4**size
            assert np.array_equal(gathered.reshape(-1), in_order(rho, target))
            # a copy that in-place work can use (the order moved unless n = 1)
            assert gathered.flags.c_contiguous and (n == 1 or gathered.base is not d._stored)
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
            assert res.prob0 == pytest.approx(p0, rel=1e-12)
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
            assert res.prob0 == pytest.approx(p0, rel=1e-12), step_path(step)
            assert np.abs(copy.deepcopy(d).data - rho).max() < 1e-12, step_path(step)
            orders.add(d._order)
    assert len(orders - {None}) > 5  # the state did move between orders
    assert np.abs(d.data - rho).max() < 1e-12


def test_stored_orders_keep_rows_and_columns_alike(monkeypatch):
    """Every order a fused step stores during noisy Ising n=5 and LiH
    runs puts the support's row bits first and keeps the row bits and the
    column bits of the other qubits in one order, which the partial trace
    rho[:, ::rest+1] and the diagonal rely on."""
    from pite_sim.hamiltonian import build_lih
    from pite_sim.pite import RunConfig, Schedule, run_pite

    stored = []
    run_step = DensityMatrix._run_step

    def recording(self, step, rng):
        result = run_step(self, step, rng)
        stored.append((self.n_qubits, step.support, self._order))
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
    assert {n for n, _, _ in stored} == {5, 6}
    assert len({order for _, _, order in stored}) > 10
    for n, support, order in stored:
        rows = [q for q in order if q < n]
        assert rows == [q - n for q in order if q >= n], order
        assert tuple(rows[: len(support)]) == support == order[: len(support)], order


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
    assert twin._owed is not d._owed and twin._reads is not d._reads
    assert twin.expectation(h) == d.expectation(h) and twin.trace() == d.trace()
    assert np.array_equal(copy.deepcopy(twin).data, copy.deepcopy(d).data)
    run_circuit(twin, build_pauli_step(h.terms[0], 0.1), noise=model)
    assert (d._order, d._owed) == (order, owed) and np.array_equal(d._stored, stored)
    s_order, s_stored = s._order, s._stored.copy()
    s_twin = s.copy()
    assert s._order == s_twin._order == s_order and np.array_equal(s._stored, s_stored)
    assert np.array_equal(s_twin._stored, s_stored) and not np.shares_memory(s_twin._stored, s._stored)
    assert s_twin.expectation(h) == s.expectation(h)


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

    def recording(self, support):
        gathered, order = gather(self, support)
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
        diagonals = engine._adjoint_diagonals(h, model, counts)
        assert [x for x, _ in diagonals] == [x for x, _ in h.x_mask_diagonals]
        for x_mask, diagonal in diagonals:
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
    assert len([e for e in d._reads.values() if isinstance(e[2], np.ndarray)]) == 1


def test_gate_list_passes_run_in_the_buffers_they_own(monkeypatch):
    """A weight-7 gate-list step on an 8-qubit noisy density matrix runs
    each of Pre and Post, on S's row bits and then on its column bits, in
    one pass over the buffer it is handed: Pre in the gathered copy and
    Post in the weighted block. Only a gathered view of the stored state,
    when the matrix is already in the step's order, is copied first. The
    steps still equal ``full_kraus_step``."""
    calls = []
    product = engine._product

    def recording(a, x, overwrite=False):
        out = product(a, x, overwrite)
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
                (a, phase_in, _), middle, (b, _, phase_out) = step.ops
                assert a.dtype == b.dtype == np.float64
                assert phase_in is not None and phase_out is not None, axes
                assert step_path(step) == path
                if path == "sandwich":
                    assert middle.stack.dtype == np.float64
                res = run_step_circuit(d, step)
                rho, p0 = full_kraus_step(circ, rho, model)
                assert res.prob0 == pytest.approx(p0, rel=1e-12), (axes, path)
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
    Pre_S has a ``phase_out`` and Post_S a ``phase_in``, which fold into
    the stack. The pass form of the same sandwich agrees too."""
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
            pre, middle, post = step.ops
            if path == "sandwich":
                folded = name == "phased"
                assert pre[2] is None and post[1] is None, name
                assert np.iscomplexobj(middle.stack) == folded, name
            else:
                assert (pre[2] is not None, post[1] is not None) == ((name == "phased"),) * 2
            res = run_step_circuit(d, step)
            assert res.prob0 == pytest.approx(p0, rel=1e-12), (name, path)
            assert np.abs(d.data - want).max() < 1e-12, (name, path)


@pytest.mark.parametrize("eps_d", [None, 1e-5, 0.9, 1.0])
def test_mask_stack_is_the_weight_then_the_channel(eps_d):
    """On random blocks, entry by entry: the X-mask stack of W with Pre's
    ``phase_out`` and Post's ``phase_in`` folded in, scaled, equals
    rho * phase_out * W * scale, then ``_channel`` once on the k qubits,
    then * phase_in, for k = 1 to 4, complex and real rho."""
    local = np.random.default_rng(41)
    model = None if eps_d is None else NoiseModel(0.0 if eps_d == 1.0 else 0.03, eps_d)
    for k in (1, 2, 3, 4):
        size = 2**k
        c = np.cos(local.uniform(0.0, math.pi, size))
        w = np.outer(c, c) + 0.2 * np.outer(1.0 - c, 1.0 - c)
        phases = [np.exp(1j * local.uniform(0.0, 2.0 * math.pi, size)) for _ in range(2)]
        phase_out, phase_in = (np.outer(d, d.conj()) for d in phases)
        for fold in ((None, None), (phase_out, None), (None, phase_in), (phase_out, phase_in)):
            stage = engine._mask_stage(w, model, *fold)
            assert np.array_equal(stage.row, w.diagonal())
            assert stage.stack.shape == (size,) * 3
            for rho in (local.standard_normal((size * size, 9)),
                        local.standard_normal((size * size, 9))
                        + 1j * local.standard_normal((size * size, 9))):
                want = rho * (w if fold[0] is None else w * fold[0]).reshape(-1, 1) * 0.7
                if model is not None:
                    engine._channel(want, model, (1,) * k, columns=k)
                if fold[1] is not None:
                    want = want * fold[1].reshape(-1, 1)
                got = engine._by_mask(stage.stack, rho, 0.7)
                assert got.shape == rho.shape
                assert np.abs(got - want).max() < 1e-14 * np.abs(want).max() * size, (k, fold)
    order, inverse = engine._mask_order(3)
    r, c = np.divmod(order, 8)
    assert np.array_equal(r ^ c, np.repeat(np.arange(8), 8))
    assert np.array_equal(order[inverse], np.arange(64))


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
            support = tuple(sorted({q for g in circ.gates for q in engine.qubits_of(g)} - {n}))
            pre_s = on_support(circ.pre_measure[:split], support)
            post_s = on_support(circ.post_measure, support)
            assert np.array_equal(pre_s.conj().T, post_s), term
            built.clear()
            step = lower_step(circ, StateVector(n), model)
            assert len(built) == 1 and np.array_equal(step.ops[2], post_s), term
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
    """The pair rotation in its first form: a copy of v0, then each
    update in place."""
    x0 = v0.copy()
    v0 *= m[0, 0]
    v0 += m[0, 1] * v1
    v1 *= m[1, 1]
    v1 += m[1, 0] * x0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pair_kernels_match_the_reference_bitwise(dtype):
    """``_rotate_pair`` forms the same products and sums as the reference,
    and ``_hadamard_pair`` the ones the reference forms with the Hadamard
    matrix ((-h) v1 is -(h v1) exactly): equal to the last bit, on
    strided views of real and of complex buffers."""
    h = engine._SQRT1_2
    matrices = [np.array([[h, h], [h, -h]]), engine._ry_matrix(0.83), np.array([[0, -1j], [1j, 0]])]
    for m in matrices[: 2 if dtype is np.float64 else 3]:
        for target in range(3):
            start = random_state(3)
            start = start.real.copy() if dtype is np.float64 else start
            kernel, reference = start.copy(), start.copy()
            if m is matrices[0]:
                engine._hadamard_pair(*engine._pinned_views(kernel, (), target))
            else:
                engine._rotate_pair(*engine._pinned_views(kernel, (), target), m)
            rotate_pair_reference(*engine._pinned_views(reference, (), target), m)
            assert np.array_equal(kernel, reference), (m, target)


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
    """The noiseless statevector K0 = Post_S diag(c_S) Pre_S, built by
    Post's kernels on diag(c_S) Pre_S, is a I + b P on S: real for an even
    number of Y factors and with an imaginary part (b i^#Y) for an odd
    one. The kernels keep real and imaginary parts apart and turn phases
    by exact quarter turns, so an even-Y K0 comes out float64 with no
    tolerance; every K0 matches the postselected operator of the circuit,
    whose unitary is contracted from the gates' definitions."""
    for term in k0_oracle_terms():
        circ = build_pauli_step(term, dt)
        step = lower_step(circ, StateVector(term.n_qubits))
        k0 = step.ops[0]
        n_y = sum(a is PauliAxis.Y for a in term.axes)
        assert k0.dtype == (np.float64 if n_y % 2 == 0 else np.complex128), term
        want = postselected_operator(circ)
        assert np.abs(on_register(k0, step.support, term.n_qubits) - want).max() < 1e-14, term


def test_noiseless_lih_run_stays_real(monkeypatch):
    """A noiseless LiH run from a real initial state keeps its stored state
    float64 through every one of its measurements."""
    from pite_sim import pite

    dtypes = set()
    run = pite.run_step_circuit

    def recording(state, step, rng=None):
        result = run(state, step, rng)
        dtypes.add(state._stored.dtype)
        return result

    monkeypatch.setattr(pite, "run_step_circuit", recording)
    h = build_lih()
    spec = InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")])
    result = pite.run_pite(h, prepare_initial(spec, 6), pite.Schedule(dt=0.05, n_steps=20))
    assert result.completed and dtypes == {np.dtype(np.float64)}


@pytest.mark.parametrize("gate", ALL_GATE_SAMPLES, ids=lambda g: type(g).__name__)
def test_relabel_and_axis_maps_match_the_replaced_gate(gate):
    """``_relabel`` builds each gate kind through its own constructor; the
    result equals ``dataclasses.replace`` on the moved qubit fields (a
    dense block's ``on_qubits``), and the kernels running the original
    gate through the same map as an axis map give the bitwise same
    buffer, on the row side and conjugated."""
    position = {0: 2, 1: 0, 2: 1}
    moved = engine._relabel(gate, position)
    if isinstance(gate, DenseBlock):
        want = gate.on_qubits(tuple(position[q] for q in gate.qubits))
        assert moved.qubits == want.qubits and moved.matrix is gate.matrix
    elif isinstance(gate, ConditionalRy):
        want = dataclasses.replace(
            gate, register=tuple(position[q] for q in gate.register), target=position[gate.target]
        )
        assert moved == want
    else:
        fields = [f for f in ("qubit", "control", "target") if hasattr(gate, f)]
        assert moved == dataclasses.replace(gate, **{f: position[getattr(gate, f)] for f in fields})
    for conjugate in (False, True):
        start = random_state(3)
        by_map, by_gate = start.copy(), start.copy()
        engine._apply_gate_flat(by_map, 3, gate, position, conjugate)
        engine._apply_gate_flat(by_gate, 3, moved, range(3), conjugate)
        assert np.array_equal(by_map, by_gate)


def test_cached_arrays_are_read_only():
    h = build_h2(0.75)
    energies, vectors = eigensystem(h)
    cached = [
        energies,
        vectors,
        engine._channel_factors(NoiseModel(0.2, 0.3), (1, 2))[1],
        engine._channel_superop(NoiseModel(0.2, 0.3), (1, 2)),
        *(d for _, d in h.x_mask_diagonals),
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
        u = gates_unitary(syn.circuit.gates, n)
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
