"""Grouped Hamiltonian blocks for the generalized evolution step.

A group spec partitions the Hamiltonian's term list; each group is summed
into a dense Hermitian block on the union support of its members,
eigendecomposed with ``numpy.linalg.eigh``, and handed to circuit synthesis
(basis change + conditional ancilla rotation) and to the generalized
success-probability estimate via ``sum_block_minima``.

A block is assembled by the X-mask scatter of
``PauliHamiltonian.dense_matrix`` over the group's terms restricted to the
block's support. The scatter adds the terms in group order, the order of the
sum of their Kronecker products, so a block equals that sum bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .hamiltonian import PauliHamiltonian, PauliTerm, real_if_exact

__all__ = [
    "GroupSpec",
    "GroupedBlock",
    "parse_groupspec",
    "lih_groupspec",
    "group_hamiltonian",
    "ising_local_grouping",
    "sum_block_minima",
]

MAX_BLOCK_SUPPORT = 6


@dataclass(frozen=True)
class GroupSpec:
    """Partition of 1-based term indices into groups."""

    groups: tuple[tuple[int, ...], ...]

    def validate(self, n_terms: int) -> None:
        seen: set[int] = set()
        for group in self.groups:
            for idx in group:
                if not 1 <= idx <= n_terms:
                    raise ValueError(f"term index {idx} outside 1..{n_terms}")
                if idx in seen:
                    raise ValueError(f"term index {idx} appears in more than one group")
                seen.add(idx)
        if len(seen) != n_terms:
            missing = sorted(set(range(1, n_terms + 1)) - seen)
            raise ValueError(f"grouping does not cover terms {missing}")


def parse_groupspec(text: str) -> GroupSpec:
    """One group per line: comma-separated 1-based term indices, # comments."""
    groups: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            indices = tuple(int(tok) for tok in line.split(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected comma-separated integers") from None
        if not indices:
            raise ValueError(f"line {lineno}: empty group")
        groups.append(indices)
    if not groups:
        raise ValueError("empty group spec")
    return GroupSpec(tuple(groups))


def lih_groupspec() -> GroupSpec:
    """The shipped 22-set grouping of the LiH Hamiltonian's 61 terms."""
    text = resources.files("pite_sim.data").joinpath("lih_groups.txt").read_text()
    return parse_groupspec(text)


class GroupedBlock:
    """Dense Hermitian block of summed terms on a small qubit support."""

    __slots__ = ("n_qubits", "support", "matrix", "eigenvalues", "eigenvectors")

    def __init__(self, n_qubits: int, support: tuple[int, ...], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        dim = 2 ** len(support)
        if matrix.shape != (dim, dim):
            raise ValueError(f"block matrix shape {matrix.shape} does not match support")
        scale = max(1.0, np.abs(matrix).max())
        if not np.abs(matrix - matrix.conj().T).max() <= 1e-12 * scale:  # NaN fails too
            raise ValueError("block matrix is not Hermitian")
        self.n_qubits = n_qubits
        self.support = tuple(support)
        self.matrix = matrix
        # real blocks keep real eigenvectors so circuits stay on the
        # float64 fast path
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(real_if_exact(matrix))

    @property
    def lambda0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def omegas(self) -> np.ndarray:
        return self.eigenvalues - self.eigenvalues[0]

    def __repr__(self) -> str:
        return (
            f"GroupedBlock(support={self.support}, "
            f"lambda0={self.lambda0:.6g}, dim={self.matrix.shape[0]})"
        )


def group_hamiltonian(h: PauliHamiltonian, spec: GroupSpec) -> list[GroupedBlock]:
    """Sum each group's terms into a block on the union of their supports.

    The members, restricted to the support's axes and kept in group order,
    form a Hamiltonian on the support whose ``dense_matrix`` (without offset)
    is the block; its scatter sums them in that order."""
    spec.validate(h.n_terms)
    blocks = []
    for group in spec.groups:
        members = [h.terms[idx - 1] for idx in group]
        support = tuple(sorted(set().union(*(t.support for t in members))))
        if len(support) > MAX_BLOCK_SUPPORT:
            raise ValueError(
                f"group {group} spans {len(support)} qubits, "
                f"limit is {MAX_BLOCK_SUPPORT}"
            )
        local = tuple(PauliTerm(t.coeff, tuple(t.axes[q] for q in support)) for t in members)
        matrix = PauliHamiltonian(len(support), local).dense_matrix(include_offset=False)
        blocks.append(GroupedBlock(h.n_qubits, support, matrix))
    return blocks


def ising_local_grouping(
    n: int, J: float, g: float, h: float
) -> tuple[GroupSpec, list[GroupedBlock]]:
    """Per-bond grouping of the cyclic Ising chain: block k collects the
    bond Z_k Z_{k+1} with the site fields g X_k and h Z_k."""
    from .hamiltonian import build_ising

    ham = build_ising(n, J, g, h)
    groups: list[tuple[int, ...]] = []
    for k in range(n):
        indices = []
        for pos, term in enumerate(ham.terms, start=1):
            support = term.support
            axes = term.axes
            if len(support) == 2 and support == tuple(sorted((k, (k + 1) % n))):
                indices.append(pos)  # the ZZ bond
            elif support == (k,):
                indices.append(pos)  # X_k and/or Z_k field
        groups.append(tuple(indices))
    spec = GroupSpec(tuple(groups))
    return spec, group_hamiltonian(ham, spec)


def sum_block_minima(blocks: list[GroupedBlock]) -> float:
    """Sum over blocks of the lowest eigenvalue, the quantity the grouped
    decomposition raises to improve success probability."""
    return float(sum(b.lambda0 for b in blocks))
