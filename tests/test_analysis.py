"""Tests for the exact eigensystem, spectra and the bound formulas."""
import math

import numpy as np
import pytest

from pite_sim.analysis import (
    alb,
    alb_generalized,
    diagonalize,
    eigensystem,
    exact_ite_state,
    exact_ite_trace,
    fidelity_bound,
    kappa_exponents,
    rlb,
)
from pite_sim.hamiltonian import (
    InitialState,
    PauliHamiltonian,
    PauliTerm,
    build_h2,
    build_ising,
    build_lih,
    prepare_initial,
)


@pytest.mark.parametrize(
    "build",
    [lambda: build_h2(0.75), build_lih, lambda: build_ising(4, 1.0, 1.2, 0.3)],
    ids=["h2", "lih", "ising4"],
)
def test_eigensystem_contract(build):
    h = build()
    m = h.dense_matrix(include_offset=True)
    w, v = eigensystem(h)
    assert w.dtype == np.float64 and v.dtype == np.float64
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(v.T @ v - np.eye(m.shape[0])).max() < 1e-12
    assert np.linalg.norm(m @ v - v * w[None, :], axis=0).max() < 1e-10


def test_diagonalize_h2():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    # closed form for the {|00>,|11>} block: c0 + c2 - sqrt(4 c1^2 + c3^2)
    c0, c1, c2, c3 = -0.349833, -0.388748, 0.0111772, 0.181771
    e0 = c0 + c2 - math.sqrt(4 * c1 * c1 + c3 * c3)
    assert abs(spec.e0 - e0) < 1e-10
    assert abs(spec.e0 - (-1.1371)) < 1e-4
    assert abs(np.sum(spec.overlaps) - 1.0) < 1e-10
    assert spec.s0 > 0.98


def test_diagonalize_single_qubit():
    h = PauliHamiltonian(1, (PauliTerm.from_string(-1.0, "Z"),))
    spec = diagonalize(h, np.array([1.0, 0.0]))
    assert abs(spec.e0 - (-1.0)) < 1e-12
    assert spec.gap1 == pytest.approx(2.0, abs=1e-12)
    assert spec.s0 == pytest.approx(1.0)


def test_diagonalize_degenerate_ground():
    # classical Ising ring n=3: E0 = -3 twice, first positive gap 4
    h = build_ising(3, 1.0, 0.0, 0.0)
    init = prepare_initial(InitialState.basis("000"), 3)
    spec = diagonalize(h, init)
    assert abs(spec.e0 - (-3.0)) < 1e-10
    assert spec.ground_degeneracy == 2
    assert spec.gap1 == pytest.approx(4.0, abs=1e-9)
    assert spec.s0 == pytest.approx(1.0, abs=1e-10)  # |000> is in the ground space


def test_fidelity_bound_basics():
    assert fidelity_bound(0.3, 0.7, 0.0) == pytest.approx(0.3)
    assert fidelity_bound(0.3, 0.7, 1e6) == pytest.approx(1.0)
    val = fidelity_bound(0.99, 0.5, 2.0)
    assert val == pytest.approx(0.99 / (0.99 + 0.01 * math.exp(-2.0)), rel=1e-12)
    with pytest.raises(ValueError):
        fidelity_bound(0.0, 1.0, 1.0)


def test_rlb_values():
    h = build_h2(0.75)
    assert rlb(h, 0.0) == 1.0
    total = 2 * 0.388748 + 0.0111772 + 0.181771
    assert h.abs_coeff_sum == pytest.approx(total, abs=1e-12)
    assert rlb(h, 1.0) == pytest.approx(math.exp(-4.0 * total), rel=1e-12)
    assert rlb(h, 1.0) == pytest.approx(0.02062, abs=5e-5)
    single = PauliHamiltonian(1, (PauliTerm.from_string(-1.0, "Z"),))
    assert rlb(single, 1.0) == pytest.approx(math.exp(-4.0))


def test_alb_limits():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    assert alb(h, spec, 0.0) == pytest.approx(1.0)
    # ground-state init: second term vanishes
    ginit = spec.ground_basis[:, 0]
    gspec = diagonalize(h, ginit)
    assert gspec.s0 == pytest.approx(1.0, abs=1e-9)
    e_ground = gspec.e0 - h.identity_offset
    expect = math.exp(-2.0 * 2.0 * (e_ground + h.abs_coeff_sum))
    assert alb(h, gspec, 2.0) == pytest.approx(expect, rel=1e-9)


def test_alb_lih_above_rlb():
    h = build_lih()
    init = prepare_initial(
        InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")]), 6
    )
    spec = diagonalize(h, init)
    assert alb(h, spec, 2.0) > rlb(h, 2.0)


def test_alb_generalized_reduction_and_monotonicity():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    for beta in (0.5, 1.0, 3.0):
        assert alb_generalized(h, -h.abs_coeff_sum, spec, beta) == pytest.approx(
            alb(h, spec, beta), rel=1e-12
        )
    assert alb_generalized(h, -0.5, spec, 1.0) > alb_generalized(h, -0.9, spec, 1.0)


def test_kappa_exponents():
    single = PauliHamiltonian(1, (PauliTerm.from_string(-1.0, "Z"),))
    spec = diagonalize(single, np.array([1.0, 0.0]))
    k0, k1 = kappa_exponents(single, spec)
    assert k0 == pytest.approx(1.0, abs=1e-10)
    assert k1 == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.1, 3.0])
def test_kappa_scale_invariance(alpha):
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    scaled = PauliHamiltonian(
        2,
        tuple(PauliTerm(alpha * t.coeff, t.axes) for t in h.terms),
        alpha * h.identity_offset,
    )
    k = kappa_exponents(h, diagonalize(h, init))
    ks = kappa_exponents(scaled, diagonalize(scaled, init))
    assert k[0] == pytest.approx(ks[0], abs=1e-10)
    assert k[1] == pytest.approx(ks[1], abs=1e-10)


def test_exact_ite_monotone_and_bounded():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    betas = np.linspace(0.0, 5.0, 26)
    energies, fidelities = exact_ite_trace(h, init, betas)
    assert np.all(np.diff(energies) <= 1e-12)
    assert np.all(np.diff(fidelities) >= -1e-12)
    for beta, fid in zip(betas, fidelities):
        assert fid >= fidelity_bound(spec.s0, spec.gap1, beta) - 1e-12


def test_fidelity_bound_equality_two_level():
    # all excited weight at the first gap makes the bound exact
    h = PauliHamiltonian(1, (PauliTerm.from_string(1.0, "Z"),))
    init = np.array([0.6, 0.8])  # ground of +Z is |1>
    spec = diagonalize(h, init)
    for beta in (0.0, 0.3, 1.0, 2.5):
        vec = exact_ite_state(h, init, beta)
        fid = spec.fidelity_to_ground(vec)
        assert fid == pytest.approx(fidelity_bound(spec.s0, spec.gap1, beta), abs=1e-12)


def test_exact_ite_annihilated():
    h = PauliHamiltonian(1, (PauliTerm.from_string(-1.0, "Z"),))
    with pytest.raises(ValueError, match="annihilated"):
        exact_ite_state(h, np.array([0.0, 1.0]), 1e6)


def test_eigensystem_qubit_limit():
    h = build_ising(13, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="12 qubits"):
        eigensystem(h)
