"""Tests for grouped Hamiltonian blocks and the shipped groupings."""
import math

import numpy as np
import pytest

from pite_sim.circuit import build_grouped_step, build_pauli_step
from pite_sim.engine import postselected_operator
from pite_sim.grouping import (
    GroupedBlock,
    GroupSpec,
    embed_block,
    group_hamiltonian,
    ising_block_eigenvalues,
    ising_local_grouping,
    lih_groupspec,
    parse_groupspec,
    singleton_groupspec,
    sum_block_minima,
)
from pite_sim.hamiltonian import PauliAxis, PauliHamiltonian, PauliTerm, build_ising, build_lih

rng = np.random.default_rng(4242)


def test_parse_groupspec():
    spec = parse_groupspec("# groups\n1,2,3\n4\n5,6\n")
    assert spec.groups == ((1, 2, 3), (4,), (5, 6))
    with pytest.raises(ValueError, match="comma-separated"):
        parse_groupspec("1,a")
    with pytest.raises(ValueError, match="empty"):
        parse_groupspec("# nothing\n")


def test_groupspec_partition_validation():
    h = build_ising(3, 1.0, 0.5, 0.0)  # 6 terms
    with pytest.raises(ValueError, match="more than one group"):
        group_hamiltonian(h, GroupSpec(((1, 2), (2, 3), (4, 5, 6))))
    with pytest.raises(ValueError, match="does not cover"):
        group_hamiltonian(h, GroupSpec(((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="outside"):
        group_hamiltonian(h, GroupSpec(((1, 2, 3, 4, 5, 6, 7),)))


def test_singleton_blocks_have_pauli_spectrum():
    h = build_ising(4, 1.0, 1.2, 0.3)
    blocks = group_hamiltonian(h, singleton_groupspec(h.n_terms))
    for term, block in zip(h.terms, blocks):
        c = abs(term.coeff)
        assert block.lambda0 == pytest.approx(-c, abs=1e-12)
        assert block.eigenvalues[-1] == pytest.approx(c, abs=1e-12)
        assert block.omegas[0] == 0.0
    assert sum_block_minima(blocks) == pytest.approx(-h.abs_coeff_sum, abs=1e-12)


def test_sum_block_minima_empty():
    assert sum_block_minima([]) == 0.0


def test_ising_block_matches_tabulated_matrix():
    g, h = 1.2, 0.3
    _, blocks = ising_local_grouping(5, 1.0, g, h)
    reference = -np.array(
        [
            [1 + h, 0, g, 0],
            [0, -1 + h, 0, g],
            [g, 0, -1 - h, 0],
            [0, g, 0, 1 - h],
        ]
    )
    assert np.abs(blocks[0].matrix - reference).max() == 0.0
    assert blocks[0].support == (0, 1)
    # cyclic block wraps around
    assert blocks[4].support == (0, 4)


def test_ising_block_eigenvalues_closed_form():
    g, h = 1.2, 0.3
    lam = ising_block_eigenvalues(g, h)
    assert lam[0] == pytest.approx(-math.sqrt(3.13), rel=1e-12)
    assert lam[0] == pytest.approx(-1.76918, abs=1e-5)
    assert lam[1] == pytest.approx(-math.sqrt(g * g + 0.49), rel=1e-12)
    assert lam[1] == pytest.approx(-1.38924, abs=1e-5)
    _, blocks = ising_local_grouping(3, 1.0, g, h)
    assert np.abs(np.asarray(lam) - blocks[0].eigenvalues).max() < 1e-10


@pytest.mark.parametrize("trial", range(50))
def test_ising_block_jacobi_vs_closed_form_random(trial):
    """GroupedBlock's eigenvalues against the closed form. The name is from
    the Jacobi solver the blocks once used; it stays so the 50 test ids do."""
    g = float(rng.uniform(-2.0, 2.0))
    h = float(rng.uniform(-2.0, 2.0))
    reference = -np.array(
        [
            [1 + h, 0, g, 0],
            [0, -1 + h, 0, g],
            [g, 0, -1 - h, 0],
            [0, g, 0, 1 - h],
        ]
    )
    block = GroupedBlock(2, (0, 1), reference)
    expected = np.sort(ising_block_eigenvalues(g, h))
    assert np.abs(block.eigenvalues - expected).max() < 1e-10


def test_grouped_block_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        GroupedBlock(1, (0,), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_grouped_block_rejects_a_nan_matrix():
    # NaN must fail the Hermiticity tolerance, not reach eigh
    with pytest.raises(ValueError, match="Hermitian"):
        GroupedBlock(1, (0,), np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_grouped_block_real_matrix_gives_float64_eigenvectors():
    block = GroupedBlock(2, (0, 1), np.diag([3.0, -1.0, 2.0, 0.5]).astype(complex))
    assert block.eigenvectors.dtype == np.float64
    assert np.allclose(block.eigenvalues, [-1.0, 0.5, 2.0, 3.0])
    complex_block = GroupedBlock(1, (0,), np.array([[0.0, -1j], [1j, 0.0]]))
    assert complex_block.eigenvectors.dtype == np.complex128


def test_ising_block_degenerate_cases():
    lam = ising_block_eigenvalues(0.0, 0.0)
    assert tuple(lam) == (-1.0, -1.0, 1.0, 1.0)
    lam = ising_block_eigenvalues(1.0, 0.0)
    assert lam[0] == pytest.approx(lam[1])
    assert lam[0] == pytest.approx(-math.sqrt(2.0))


def test_ising_grouping_handles_dropped_terms():
    # g = 0 drops the X fields; groups then hold two terms each
    spec, blocks = ising_local_grouping(4, 1.0, 0.0, 0.5)
    assert all(len(g) == 2 for g in spec.groups)
    h = build_ising(4, 1.0, 0.0, 0.5)
    spec.validate(h.n_terms)


def test_ising_sum_minima_closed_form():
    _, blocks = ising_local_grouping(10, 1.0, 1.2, 0.3)
    assert sum_block_minima(blocks) == pytest.approx(-10 * math.sqrt(3.13), rel=1e-12)
    assert sum_block_minima(blocks) == pytest.approx(-17.6918, abs=1e-4)
    # the shipped grouping strictly improves on the per-Pauli floor
    assert sum_block_minima(blocks) > -build_ising(10, 1.0, 1.2, 0.3).abs_coeff_sum


def test_block_reconstruction_ising():
    n = 6
    h = build_ising(n, 1.0, 1.2, 0.3)
    _, blocks = ising_local_grouping(n, 1.0, 1.2, 0.3)
    total = sum(embed_block(b, n) for b in blocks)
    assert np.abs(total - h.dense_matrix(include_offset=False)).max() < 1e-10


def test_lih_grouping_shape_and_reconstruction():
    h = build_lih()
    spec = lih_groupspec()
    blocks = group_hamiltonian(h, spec)
    assert len(blocks) == 22
    assert max(len(b.support) for b in blocks) <= 6
    total = sum(embed_block(b, 6) for b in blocks)
    assert np.abs(total - h.dense_matrix(include_offset=False)).max() < 1e-10
    # grouping strictly raises the sum of block minima
    assert sum_block_minima(blocks) > -h.abs_coeff_sum
    for b in blocks:
        residual = np.abs(
            b.matrix @ b.eigenvectors - b.eigenvectors * b.eigenvalues[None, :]
        ).max()
        assert residual < 1e-10
        assert np.all(b.omegas >= 0.0)


def _random_odd_y_case():
    """Seeded random 5-qubit Pauli sum with odd-Y (complex) terms, in 4 groups."""
    gen = np.random.default_rng(5150)
    axes = (PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
    terms = []
    while len(terms) < 24:
        picked = tuple(axes[k] for k in gen.integers(0, 4, size=5))
        if any(a is not PauliAxis.I for a in picked):
            terms.append(PauliTerm(float(gen.uniform(-1.0, 1.0)), picked))
    assert sum(t.axes.count(PauliAxis.Y) % 2 for t in terms) >= 4
    order = gen.permutation(len(terms)) + 1
    spec = GroupSpec(tuple(tuple(int(i) for i in chunk) for chunk in np.array_split(order, 4)))
    return PauliHamiltonian(5, tuple(terms)), spec


@pytest.mark.parametrize("case", ["lih-22", "ising-local-8", "random-odd-y"])
def test_blocks_equal_kron_sum_of_members(case):
    """Each block equals, bit for bit, the Kronecker-product oracle summed over
    its members in group order, each restricted to the block's support."""
    if case == "lih-22":
        h, spec = build_lih(), lih_groupspec()
    elif case == "ising-local-8":
        h = build_ising(8, 1.0, 1.2, 0.3)
        spec, _ = ising_local_grouping(8, 1.0, 1.2, 0.3)
    else:
        h, spec = _random_odd_y_case()
    blocks = group_hamiltonian(h, spec)
    assert len(blocks) == len(spec.groups)
    for group, block in zip(spec.groups, blocks):
        dim = 2 ** len(block.support)
        expected = np.zeros((dim, dim), dtype=complex)
        for idx in group:
            term = h.terms[idx - 1]
            local_axes = tuple(term.axes[q] for q in block.support)
            expected += PauliTerm(term.coeff, local_axes).dense_matrix()
        assert np.array_equal(block.matrix, expected)
    if case == "random-odd-y":
        assert any(block.matrix.imag.any() for block in blocks)


def test_oversized_support_rejected():
    terms = tuple(
        PauliTerm.from_string(0.1, axes)
        for axes in ("ZIIIIII", "IZIIIII", "IIZIIII", "IIIZIII", "IIIIZII", "IIIIIZI", "IIIIIIZ")
    )
    from pite_sim.hamiltonian import PauliHamiltonian

    h = PauliHamiltonian(7, terms)
    with pytest.raises(ValueError, match="limit"):
        group_hamiltonian(h, GroupSpec(((1, 2, 3, 4, 5, 6, 7),)))


def test_grouped_step_singleton_equals_pauli_step():
    h = build_ising(4, 1.0, 1.2, 0.3)
    blocks = group_hamiltonian(h, singleton_groupspec(h.n_terms))
    for term, block in list(zip(h.terms, blocks))[:4]:
        kp = postselected_operator(build_pauli_step(term, 0.13))
        kg = postselected_operator(build_grouped_step(block, 0.13))
        assert np.abs(kp - kg).max() < 1e-10


def test_grouped_step_matches_block_exponential():
    for n, J, g, hf in [(4, 1.0, 1.2, 0.3), (5, 0.7, 0.4, -0.2)]:
        _, blocks = ising_local_grouping(n, J, g, hf)
        dt = 0.17
        for block in blocks[:3]:
            k = postselected_operator(build_grouped_step(block, dt))
            # independent reference: eigh-based exponential on the support,
            # embedded on the full register
            w, v = np.linalg.eigh(block.matrix)
            exp_block = v @ np.diag(np.exp(-(w - w[0]) * dt)) @ v.conj().T
            full = np.kron(exp_block, np.eye(2 ** (n - len(block.support))))
            order = list(block.support) + [q for q in range(n) if q not in block.support]
            perm = np.argsort(order)
            tensor = full.reshape((2,) * (2 * n))
            tensor = np.transpose(tensor, tuple(perm) + tuple(n + p for p in perm))
            target = tensor.reshape(2**n, 2**n)
            assert np.abs(k - target).max() < 1e-9


def test_grouped_step_identity_block():
    # identity-shifted block: all omegas zero, circuit acts as identity
    block = GroupedBlock(3, (0, 1), 0.7 * np.eye(4))
    k = postselected_operator(build_grouped_step(block, 0.2))
    assert np.abs(k - np.eye(8)).max() < 1e-12


def test_lih_22_sum_minima_value_vs_singleton():
    h = build_lih()
    grouped = group_hamiltonian(h, lih_groupspec())
    singles = group_hamiltonian(h, singleton_groupspec(h.n_terms))
    assert sum_block_minima(grouped) > sum_block_minima(singles)


def test_lih_grouped_step_matches_block_exponential():
    h = build_lih()
    blocks = group_hamiltonian(h, lih_groupspec())
    dt = 0.11
    for block in (blocks[0], blocks[17], blocks[21]):  # 2-, 4- and 6-qubit supports
        k = postselected_operator(build_grouped_step(block, dt))
        w, v = np.linalg.eigh(block.matrix)
        exp_block = v @ np.diag(np.exp(-(w - w[0]) * dt)) @ v.conj().T
        n = h.n_qubits
        full = np.kron(exp_block, np.eye(2 ** (n - len(block.support))))
        order = list(block.support) + [q for q in range(n) if q not in block.support]
        perm = np.argsort(order)
        tensor = full.reshape((2,) * (2 * n))
        tensor = np.transpose(tensor, tuple(perm) + tuple(n + p for p in perm))
        target = tensor.reshape(2**n, 2**n)
        assert np.abs(k - target).max() < 1e-9
