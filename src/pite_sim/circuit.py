"""Gate-level synthesis of the probabilistic imaginary-time step circuits.

A step circuit for one Hamiltonian term acts on n work qubits plus one
ancilla (always the highest index). Its shape is

    U_k  -->  controlled-Ry(theta_k) onto the ancilla  -->  [measure]  -->  U_k^dag

where U_k is a basis change folding the term onto a single "pivot" qubit,
and theta_k = 2 arccos(e^{-2 |c_k| dt}). Post-selecting the ancilla on 0
makes the work-qubit action proportional to e^{-c_k h_k dt}.

Grouped steps generalize this: the basis change diagonalizes a whole
Hermitian block and the ancilla rotation angle depends on which eigenvalue
branch the work register is in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union, get_args

import numpy as np

from .hamiltonian import PauliAxis, PauliTerm, real_if_exact

if TYPE_CHECKING:
    from .grouping import GroupedBlock

__all__ = [
    "Hadamard",
    "PhaseS",
    "PhaseSdg",
    "PauliX",
    "CNOT",
    "Ry",
    "ControlledRy",
    "ConditionalRy",
    "DenseBlock",
    "Gate",
    "Circuit",
    "UkSynthesis",
    "adjoint",
    "adjoint_sequence",
    "synthesize_uk",
    "check_time",
    "theta_for_coeff",
    "build_pauli_step",
    "build_grouped_step",
    "gate_count",
]


class _OneQubit:
    """A gate on the one qubit ``qubit``. Every gate carries ``qubits``,
    the qubits it acts on in the order its matrix lists them (the first
    the most significant bit), which validation and lowering read."""

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


class _Controlled:
    """A gate on ``target`` controlled by the one qubit ``control``, a
    different one."""

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError(f"{type(self).__name__} control and target must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class Hadamard(_OneQubit):
    qubit: int


@dataclass(frozen=True)
class PhaseS(_OneQubit):
    """S = diag(1, i), the pi/4 phase gate."""

    qubit: int


@dataclass(frozen=True)
class PhaseSdg(_OneQubit):
    qubit: int


@dataclass(frozen=True)
class PauliX(_OneQubit):
    qubit: int


@dataclass(frozen=True)
class CNOT(_Controlled):
    control: int
    target: int


@dataclass(frozen=True)
class Ry(_OneQubit):
    """Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""

    angle: float
    qubit: int


@dataclass(frozen=True)
class ControlledRy(_Controlled):
    angle: float
    control: int
    target: int


@dataclass(frozen=True)
class ConditionalRy:
    """sum_x |x><x| (x) Ry(angle[x]) over a multi-qubit control register.

    ``angles`` maps a basis index of the register (first listed qubit is
    the most significant bit) to a rotation angle on the target; register
    states absent from the map get the identity. Only nonzero angles are
    kept.
    """

    register: tuple[int, ...]
    angles: tuple[tuple[int, float], ...]
    target: int

    def __post_init__(self) -> None:
        qubits = (*self.register, self.target)
        if len(set(qubits)) != len(qubits):
            raise ValueError("conditional-Ry register/target indices must be distinct")
        dim = 2 ** len(self.register)
        kept = []
        for x, angle in self.angles:
            if not 0 <= x < dim:
                raise ValueError(f"register basis index {x} out of range for {dim} states")
            if angle != 0.0:
                kept.append((int(x), float(angle)))
        if len({x for x, _ in kept}) != len(kept):
            raise ValueError("duplicate register basis index in angle map")
        object.__setattr__(self, "angles", tuple(kept))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*self.register, self.target)

    @staticmethod
    def from_map(register: tuple[int, ...], angles: dict[int, float], target: int) -> "ConditionalRy":
        return ConditionalRy(register, tuple(sorted(angles.items())), target)


class DenseBlock:
    """An explicit unitary on a small ordered list of qubits.

    The matrix basis follows the listed qubit order with the first qubit as
    the most significant bit. The simulator applies it directly; no
    elementary-gate synthesis is attempted.
    """

    __slots__ = ("qubits", "matrix")

    def __init__(self, qubits: tuple[int, ...], matrix: np.ndarray):
        qubits = tuple(qubits)
        matrix = np.asarray(matrix)
        if len(set(qubits)) != len(qubits):
            raise ValueError("dense block qubits must be distinct")
        dim = 2 ** len(qubits)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match {len(qubits)} qubits")
        err = np.abs(matrix.conj().T @ matrix - np.eye(dim)).max()
        if not err <= 1e-10:  # NaN fails too
            raise ValueError(f"dense block is not unitary (deviation {err:.3e})")
        self.qubits = qubits
        self.matrix = real_if_exact(matrix)  # keep real-valued states on the real path

    def adjoint(self) -> "DenseBlock":
        """The inverse block; the adjoint of a unitary needs no check."""
        return DenseBlock._unchecked(self.qubits, self.matrix.conj().T.astype(self.matrix.dtype))

    @staticmethod
    def _unchecked(qubits: tuple[int, ...], matrix: np.ndarray) -> "DenseBlock":
        block = object.__new__(DenseBlock)
        block.qubits = qubits
        block.matrix = matrix
        return block

    def __eq__(self, other: object) -> bool:
        """Blocks on the same qubits with equal matrices are one gate, so a
        block's adjoint equals every other adjoint of it."""
        if not isinstance(other, DenseBlock):
            return NotImplemented
        return self.qubits == other.qubits and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self.qubits)

    def __repr__(self) -> str:
        return f"DenseBlock(qubits={self.qubits}, dim={self.matrix.shape[0]})"


Gate = Union[
    Hadamard, PhaseS, PhaseSdg, PauliX, CNOT, Ry, ControlledRy, ConditionalRy, DenseBlock
]


def adjoint(gate: Gate) -> Gate:
    if isinstance(gate, (Hadamard, PauliX, CNOT)):
        return gate
    if isinstance(gate, PhaseS):
        return PhaseSdg(gate.qubit)
    if isinstance(gate, PhaseSdg):
        return PhaseS(gate.qubit)
    if isinstance(gate, Ry):
        return Ry(-gate.angle, gate.qubit)
    if isinstance(gate, ControlledRy):
        return ControlledRy(-gate.angle, gate.control, gate.target)
    if isinstance(gate, ConditionalRy):
        return ConditionalRy(gate.register, tuple((x, -a) for x, a in gate.angles), gate.target)
    if isinstance(gate, DenseBlock):
        return gate.adjoint()
    raise TypeError(f"unknown gate {gate!r}")


def adjoint_sequence(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    return tuple(adjoint(g) for g in reversed(gates))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_work`` qubits plus an optional ancilla.

    The ancilla, when present, is qubit index ``n_work``. ``measure_point``
    splits the gate list at the single ancilla measurement: gates at or
    after it must not touch the ancilla. Pure unitary circuits (no
    ancilla/measurement) use ``measure_point=None``. Construction checks
    ``measure_point``, then reads each gate's ``qubits`` once: every qubit
    must lie in the register, and below the ancilla after the measurement.
    """

    n_work: int
    has_ancilla: bool
    gates: tuple[Gate, ...]
    measure_point: int | None = None

    def __post_init__(self) -> None:
        n_total, split = self.n_qubits, self.measure_point
        if self.has_ancilla:
            if split is None:
                raise ValueError("ancilla circuits must declare a measure_point")
            if not 0 <= split <= len(self.gates):
                raise ValueError("measure_point out of range")
        elif split is not None:
            raise ValueError("measure_point requires an ancilla")
        else:
            split = len(self.gates)
        # below n_total before the measurement, below the ancilla after it
        for gates, top in ((self.gates[:split], n_total), (self.gates[split:], self.n_work)):
            for g in gates:
                for q in g.qubits:
                    if not 0 <= q < top:
                        if top < n_total and q == top:
                            raise ValueError("gates after the measurement must not touch the ancilla")
                        raise ValueError(f"gate {g!r} touches qubit {q}, register has {n_total}")

    @property
    def ancilla(self) -> int:
        if not self.has_ancilla:
            raise ValueError("circuit has no ancilla")
        return self.n_work

    @property
    def n_qubits(self) -> int:
        return self.n_work + (1 if self.has_ancilla else 0)

    @property
    def pre_measure(self) -> tuple[Gate, ...]:
        return self.gates if self.measure_point is None else self.gates[: self.measure_point]

    @property
    def post_measure(self) -> tuple[Gate, ...]:
        return () if self.measure_point is None else self.gates[self.measure_point :]


@dataclass(frozen=True)
class UkSynthesis:
    """Basis-change gates for one Pauli term, on its n work qubits, and
    its pivot qubit. They are validated as part of the step circuit that
    holds them."""

    gates: tuple[Gate, ...]
    pivot: int


def synthesize_uk(term: PauliTerm) -> UkSynthesis:
    """Unitary U with U (c h) U^dag = -|c| Z_pivot, from elementary gates.

    Construction: map X axes to Z with H and Y axes to Z with S^dag then H;
    fold all resulting Z factors onto the pivot (the lowest non-identity
    qubit) with CNOTs; flip the sign with X on the pivot when c > 0. Uses
    at most 3n single/two-qubit gates.
    """
    support = term.support
    if not support:
        raise ValueError("cannot synthesize a basis change for an identity term")
    pivot = support[0]
    gates: list[Gate] = []
    for q in support:
        axis = term.axes[q]
        if axis is PauliAxis.X:
            gates.append(Hadamard(q))
        elif axis is PauliAxis.Y:
            gates.append(PhaseSdg(q))
            gates.append(Hadamard(q))
    for q in support:
        if q != pivot:
            gates.append(CNOT(q, pivot))
    if term.coeff > 0:
        gates.append(PauliX(pivot))
    return UkSynthesis(tuple(gates), pivot)


def check_time(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the imaginary time ``value`` is positive
    and finite (NaN is neither)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def theta_for_coeff(c: float, dt: float) -> float:
    """Ancilla rotation angle 2 arccos(e^{-2 |c| dt}), in [0, pi)."""
    check_time("dt", dt)
    return 2.0 * math.acos(math.exp(-2.0 * abs(c) * dt))


def build_pauli_step(term: PauliTerm, dt: float) -> Circuit:
    """Full step circuit for one Pauli term: U_k, controlled-Ry onto the
    ancilla from the pivot, measurement, then U_k^dag."""
    syn = synthesize_uk(term)
    theta = theta_for_coeff(term.coeff, dt)
    ancilla = term.n_qubits
    uk = syn.gates
    gates = (*uk, ControlledRy(theta, syn.pivot, ancilla), *adjoint_sequence(uk))
    return Circuit(
        n_work=term.n_qubits,
        has_ancilla=True,
        gates=gates,
        measure_point=len(uk) + 1,
    )


def build_grouped_step(block: "GroupedBlock", dt: float) -> Circuit:
    """Step circuit for a grouped Hermitian block.

    The dense basis change maps eigenvector i (eigenvalues ascending) to
    the register basis state i; the conditional rotation applies
    theta_i = 2 arccos(e^{-omega_i dt}) with omega_i = lambda_i - lambda_0,
    so post-selection realizes e^{-(H_block - lambda_0) dt} on the block.
    """
    check_time("dt", dt)
    support = block.support
    ancilla = block.n_qubits
    basis_change = DenseBlock(support, block.eigenvectors.conj().T)
    angles = {
        i: 2.0 * math.acos(math.exp(-omega * dt))
        for i, omega in enumerate(block.omegas)
        if omega > 0.0
    }
    rotation = ConditionalRy.from_map(support, angles, ancilla)
    gates = (basis_change, rotation, basis_change.adjoint())
    return Circuit(
        n_work=block.n_qubits,
        has_ancilla=True,
        gates=gates,
        measure_point=2,
    )


def gate_count(circuit: Circuit) -> dict[str, int]:
    """Tally of gates by kind, each the lowercased name of a ``Gate``
    class, every kind listed (measurement not included)."""
    counts = dict.fromkeys((kind.__name__.lower() for kind in get_args(Gate)), 0)
    for g in circuit.gates:
        counts[type(g).__name__.lower()] += 1
    return counts
