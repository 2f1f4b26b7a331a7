"""Tests for Pauli Hamiltonians, model builders and initial states."""
import math

import numpy as np
import pytest

from pite_sim.hamiltonian import (
    H2_DISTANCES,
    InitialState,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    build_h2,
    build_ising,
    build_lih,
    ising_product_energy,
    optimize_product_angle,
    parse_hamiltonian,
    prepare_initial,
    serialize_hamiltonian,
)

H2_TEXT = """\
-0.388748 ZI
-0.388748 IZ
0.0111772 ZZ
0.181771 XX
-0.349833 II
"""


def test_parse_h2_style_text():
    h = parse_hamiltonian(H2_TEXT)
    assert h.n_qubits == 2
    assert h.n_terms == 4
    assert h.identity_offset == -0.349833
    assert h.terms[0].coeff == -0.388748
    assert h.terms[0].axes_string == "ZI"
    assert h.terms[3].axes_string == "XX"


def test_parse_minimal_and_comments():
    h = parse_hamiltonian("# comment\n1.0 Z  # trailing\n")
    assert h.n_qubits == 1
    assert h.n_terms == 1
    assert h.identity_offset == 0.0


def test_parse_rejects_bad_axis():
    with pytest.raises(ValueError, match="invalid axis"):
        parse_hamiltonian("0.5 ZQ")


def test_parse_rejects_malformed_coefficient():
    with pytest.raises(ValueError, match="malformed coefficient"):
        parse_hamiltonian("abc ZZ")


def test_parse_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        parse_hamiltonian("1.0 ZZ\n0.5 Z")


def test_parse_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        parse_hamiltonian("# nothing here\n")
    with pytest.raises(ValueError, match="no non-identity"):
        parse_hamiltonian("1.0 II")


def test_serialize_parse_roundtrip():
    h = build_h2(0.75)
    again = parse_hamiltonian(serialize_hamiltonian(h))
    assert again.n_qubits == h.n_qubits
    assert again.identity_offset == h.identity_offset
    for a, b in zip(h.terms, again.terms):
        assert a.axes == b.axes
        assert abs(a.coeff - b.coeff) < 1e-12


def test_pauli_term_validation():
    with pytest.raises(ValueError):
        PauliTerm.from_string(0.0, "Z")
    with pytest.raises(ValueError):
        PauliTerm.from_string(float("nan"), "Z")
    with pytest.raises(ValueError):
        PauliTerm.from_string(1.0, "II")
    with pytest.raises(ValueError):
        PauliHamiltonian(2, ())


def test_h2_table_values():
    h = build_h2(0.75)
    assert h.identity_offset == float("-3.49833E-01")
    assert h.terms[0].coeff == float("-3.88748E-01")
    assert h.terms[1].coeff == float("-3.88748E-01")
    assert h.terms[2].coeff == float("1.11772E-02")
    assert h.terms[3].coeff == float("1.81771E-01")
    assert build_h2(0.35).terms[0].coeff == float("-7.47416E-01")


def test_h2_untabulated_distance():
    with pytest.raises(ValueError, match="available"):
        build_h2(0.80)
    assert len(H2_DISTANCES) == 9


def test_lih_shape_and_cells():
    h = build_lih()
    assert h.n_qubits == 6
    assert h.n_terms == 61
    assert h.identity_offset == float("-7.35094E+00")
    # tabulated orbital j sits at string position 6 - j
    k2 = h.terms[0]
    assert k2.coeff == float("-1.58950E-01")
    assert k2.support == (5,)
    assert k2.axes[5] is PauliAxis.Z
    k62 = h.terms[60]
    assert k62.coeff == float("4.73898E-03")
    assert k62.axes_string == "YXXZZY"  # reversed "YZZXXY"


def test_lih_reference_determinant_is_lowest_basis_state():
    hm = build_lih().dense_matrix()
    diag = np.real(np.diag(hm))
    assert int(np.argmin(diag)) == 0b110000


def test_ising_term_layout():
    h = build_ising(10, 1.0, 1.2, 0.3)
    assert h.n_terms == 30
    assert h.identity_offset == 0.0
    x_terms = [t for t in h.terms if PauliAxis.X in t.axes]
    assert len(x_terms) == 10
    assert all(t.coeff == -1.2 for t in x_terms)
    zz_terms = [t for t in h.terms if len(t.support) == 2]
    assert len(zz_terms) == 10
    assert (0, 9) in [t.support for t in zz_terms]  # cyclic bond


def test_ising_zero_couplings():
    with pytest.raises(ValueError, match="zero"):
        build_ising(3, 0.0, 1.0, 1.0)
    h = build_ising(4, 1.0, 0.0, 0.0)
    assert h.n_terms == 4
    assert all(len(t.support) == 2 for t in h.terms)
    with pytest.raises(ValueError, match="n >= 3"):
        build_ising(2, 1.0, 1.0, 0.0)


def test_ising_all_zero_basis_energy():
    # <0...0|H|0...0> = -J n (1 + h) since X terms have zero expectation
    from pite_sim.engine import StateVector

    n, J, g, h = 10, 1.0, 1.2, 0.3
    ham = build_ising(n, J, g, h)
    state = StateVector(n)
    assert abs(state.expectation(ham) - (-J * n * (1 + h))) < 1e-12


def test_prepare_basis():
    vec = prepare_initial(InitialState.basis("00"), 2)
    assert np.array_equal(vec, np.array([1, 0, 0, 0], dtype=complex))
    vec = prepare_initial(InitialState.basis("110000"), 6)
    assert vec[0b110000] == 1.0
    assert np.linalg.norm(vec) == 1.0


def test_prepare_superposition():
    spec = InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")])
    vec = prepare_initial(spec, 6)
    nz = np.nonzero(vec)[0]
    assert set(nz) == {0b110000, 0b000011}
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="normalizable"):
        prepare_initial(InitialState.superposition([(0.0, "00")]), 2)


def test_product_angle_matches_bruteforce():
    # independent oracle: dense scan of the closed-form energy
    J, g, h = 1.0, 1.2, 0.3
    grid = np.linspace(0.0, math.pi, 400001)
    energies = -J * (np.cos(grid) ** 2 + g * np.sin(grid) + h * np.cos(grid))
    brute = grid[int(np.argmin(energies))]
    phi = optimize_product_angle(J, g, h)
    assert abs(phi - brute) < 1e-5
    assert ising_product_energy(phi, 1, J, g, h) <= energies.min() + 1e-12
    # frozen value from the scan
    assert abs(phi - 0.536187) < 1e-4


def test_prepare_product_state():
    J, g, h = 1.0, 1.2, 0.3
    n = 4
    vec = prepare_initial(InitialState.product(ising_params=(J, g, h)), n)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    from pite_sim.engine import StateVector

    ham = build_ising(n, J, g, h)
    e = StateVector(n, vec).expectation(ham)
    phi = optimize_product_angle(J, g, h)
    assert abs(e - ising_product_energy(phi, n, J, g, h)) < 1e-10


def test_prepare_product_explicit_phi():
    vec = prepare_initial(InitialState.product(phi=0.0), 3)
    assert vec[0] == 1.0


@pytest.mark.parametrize(
    "h",
    [
        build_h2(0.75),
        build_lih(),
        build_ising(8, 1.0, 1.2, 0.3),
        build_ising(10, 1.0, 1.2, 0.3),
        # odd Y counts: a genuinely complex matrix
        parse_hamiltonian("0.7 YZI\n-0.4 XYY\n0.25 IIY\n0.3 ZXI\n-1.1 III\n"),
    ],
    ids=["h2", "lih", "ising8", "ising10", "complex3"],
)
def test_dense_matrix_equals_the_kronecker_sum(h):
    """The matrix scattered from the X-mask diagonals is exactly the sum
    of the terms' Kronecker products, offset and dtype rule included."""
    oracle = sum(t.dense_matrix() for t in h.terms)
    with_offset = oracle + h.identity_offset * np.eye(2**h.n_qubits)
    for include_offset, want in ((False, oracle), (True, with_offset)):
        got = h.dense_matrix(include_offset=include_offset)
        real = np.abs(want.imag).max() < 1e-14
        assert got.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(got, want.real if real else want)
