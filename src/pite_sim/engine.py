"""State evolution engines: statevector and density matrix.

States hold the n work qubits only. A step circuit's ancilla starts in
|0>, is turned by y-rotations controlled on the work register and is
measured at once, so its whole effect is diagonal on the work register:
with c and s the cos and sin of half its total rotation angle on each
work basis state, outcome 0 keeps C rho C (C = diag(c)), plus
eps_d S rho S (S = diag(s)) when the ancilla is noisy.

Each step circuit is lowered once per run (:func:`lower_step`) onto its
support S, the work qubits its gates touch. Up to ``FUSED_MAX_SUPPORT``
qubits its gates become 2^|S| x 2^|S| matrices, built by running the
gate kernels on the identity columns, each gate's qubits mapped onto
their positions in S (Post_S is the adjoint of Pre_S when its gates are
Pre's inverted). A noiseless statevector step is one fused K0 = Post_S
diag(c_S) Pre_S, built the same way: Post's kernels run on diag(c_S)
Pre_S. The kernels keep real and imaginary parts apart (a complex entry
times a real factor, a sum of two such entries) and turn a phase by an
exact quarter turn, so an imaginary part that cancels in K0 comes out
exactly 0: the K0 of a Pauli term, a I + b P, is real whenever P has an
even number of Y factors, and then it is stored as float64 (as every
exactly real array is, :func:`_as_state_array`) and a real state stays
real. A statevector trajectory runs Pre_S, scales the product by c_S
(or by s_S), then runs the sampled work-qubit noise and Post_S. A
density-matrix step on at most ``SUPEROP_MAX_SUPPORT`` =
``FUSED_MAX_SUPPORT`` // 2 qubits is one 4^|S| x 4^|S| superoperator
T_S (Pre_S on both sides, the measurement as one elementwise weight on
S, the channel on S, then Post_S); a wider one gets the same four
stages in turn, Pre_S and Post_S as sandwiches. Every density-matrix
step works on the matrix gathered with S's row bits first, then S's
column bits, then the rest's: as (4^|S|, rest^2), S's vectorized block
on the leading axis, which T_S multiplies with one product. A sandwich a rho a^dag is
a on S's row bits, one product, and a^dag on its column bits, one
product batched over the rows. Between the sandwiches, the weight, the channel on
S and the phase factors keep each entry's X mask (row XOR column on S),
so up to ``MASK_STACK_MAX_SUPPORT`` qubits they are one product batched
over S's X-mask blocks (:class:`_MaskStage`); on wider supports the
weight and the phase factors scale the rows and the channel runs as
passes (:func:`_channel`). Nothing assumes rho = rho^dag. An operator real but for one
phase per column or per row is split into the real matrix and an
elementwise phase factor (:func:`_phased`), and a real matrix multiplies
a complex one as a real product (:func:`_product`). A step wider than
``FUSED_MAX_SUPPORT``, whose matrices would grow as 4^|S|, keeps Pre and
Post as gate lists relabelled onto S, which the kernels run in place on
the gathered block in the matrices' stead (on a density matrix on S's
row bits, then conjugated on its column bits), copied first only where
it may be the stored state itself; every other stage is the one a fused
step runs.

The state type selects how the noise channel is applied: a density
matrix takes the exact Kraus channel, a statevector samples one branch
(the ancilla's, then one per work qubit), so that averaging many such
trajectories, weighted by their ancilla-0 probabilities, reproduces the
channel. On a density matrix a step applies the channel on S only and
leaves it owed on every other qubit. That is exact: the channel on a
qubit outside S is trace-preserving and acts on that qubit alone, so it
commutes with the whole step, its weight and its division by prob0
included. The owed applications run, folded into one channel per qubit,
when a later step's support takes in the qubit (composed into its
superoperator, or in the gathered layout, where its passes are long) or
when ``data`` is read. On either state type a step also moves the state,
with one transpose, into its own order (S first, the other qubits as they
were stored) and leaves it there, and a step whose order the state is
already stored in (one on the same support, say) moves nothing; ``data``
restores canonical order. A density matrix's energy, trace and subspace
weight read the stored matrix as it is: an observable A of the state is
the adjoint channel N^dag(A) of the stored one, since
Tr(A N(rho)) = Tr(N^dag(A) rho), gathered in the stored order and built
once per owed counts and order.

Conventions shared with the rest of the package: qubit 0 is the most
significant bit of a basis index; in a circuit the ancilla is the
highest qubit index (least significant bit). Gates are applied in place
through reshaped views of a flat buffer; a density matrix gets every
unitary applied from both sides. The dense oracles the tests check this
module against (gate unitaries from the gate definitions, the
closed-form Pauli step) are in ``tests/oracles.py`` and share none of
its kernels.

Every measurement postselects: it keeps outcome 0 and reports prob0. A
density matrix folds 1/prob0 into its step (T_S / prob0, the X-mask
product scaled by 1/prob0, or W / prob0).
A statevector carries the squared norm of its stored vector instead and
keeps each branch unnormalized: prob0 is the ratio of the kept branch's
squared norm to the carried one, and the vector is divided once, when
``data`` reads it (see :class:`StateVector`). A sampled run's restarts
are replayed from those prob0s by the caller (see
``pite.replay_restarts``).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuit import (
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
    qubits_of,
)
from .hamiltonian import PauliHamiltonian

__all__ = [
    "StateVector",
    "DensityMatrix",
    "NoiseModel",
    "MeasureResult",
    "EvolutionAnnihilatedError",
    "make_rng",
    "BoundStep",
    "lower_step",
    "run_step_circuit",
]

ANNIHILATION_THRESHOLD = 1e-15
# A statevector whose carried squared norm falls below this is divided to
# unit norm at once, long before its entries could underflow (a chain of
# measurements with no read in between shrinks it by each prob0)
NORM2_RESCALE_THRESHOLD = 1e-100
# Widest step support (in qubits) that runs as fused operators. Up to it
# fused steps ran faster than the gate kernels on both state types
# (single-qubit terms on large density matrices about even), and each
# matrix stays within 64 KB; beyond it the matrices grow as 4^|S| and
# their set-up as 8^|S|, so wider steps run their gate lists.
FUSED_MAX_SUPPORT = 6
# Widest support (in qubits) whose density-matrix step runs as one
# 4^|S| x 4^|S| superoperator, which then stays within the same 64 x 64;
# wider fused density-matrix steps apply Pre_S and Post_S as sandwiches
SUPEROP_MAX_SUPPORT = FUSED_MAX_SUPPORT // 2
# Widest support (in qubits) whose sandwich step holds its weight and
# channel as one stack of 2^|S| blocks of 2^|S| x 2^|S| (see _MaskStage):
# 8^|S| entries, within the 4^FUSED_MAX_SUPPORT every held array keeps to.
# Wider sandwiches run them as passes. Timed alone (2-vCPU Xeon, one BLAS
# thread), on a 6-qubit matrix the stack took 25 us against the passes'
# 75 us at |S| = 4, and 116 us against 101 us at |S| = 6.
MASK_STACK_MAX_SUPPORT = 2 * FUSED_MAX_SUPPORT // 3

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class EvolutionAnnihilatedError(RuntimeError):
    """Post-selection hit numerically zero probability; the evolution died."""


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator (Philox) so sampled runs replay exactly."""
    return np.random.Generator(np.random.Philox(seed))


def _ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _pinned_views(
    flat: np.ndarray, fixed: tuple[tuple[int, int], ...], target: int | None
) -> tuple[np.ndarray, ...]:
    """Views of a flat buffer with some qubit axes pinned to bits, given
    as (axis, bit) pairs: with ``target`` given, the (bit=0, bit=1) view
    pair of the target axis; otherwise the single pinned view."""
    layout = _pinned_layout(flat.size, fixed, target)
    view = flat.reshape(layout[0])
    if target is None:
        return (view[layout[1]],)
    return view[layout[1]], view[layout[2]]


@lru_cache(maxsize=4096)
def _pinned_layout(size: int, fixed: tuple[tuple[int, int], ...], target: int | None) -> tuple:
    """The shape :func:`_pinned_views` views a buffer of ``size`` entries
    in, then the index of each view.

    The shape has one explicit axis per involved qubit only (regular
    strides keep numpy's elementwise loops fast, unlike a full (2,)*total
    reshape); any trailing buffer extent beyond the last involved qubit
    (e.g. matrix columns) is absorbed into the last axis.
    """
    bits = dict(fixed)
    involved = sorted(bits) if target is None else sorted((*bits, target))
    shape: list[int] = []
    prev = -1
    for ax in involved:
        shape.append(1 << (ax - prev - 1))
        shape.append(2)
        prev = ax
    shape.append(size >> (prev + 1))
    idx: list = [slice(None)] * len(shape)
    target_pos = None
    for i, ax in enumerate(involved):
        if ax == target:
            target_pos = 2 * i + 1
        else:
            idx[2 * i + 1] = bits[ax]
    if target is None:
        return tuple(shape), tuple(idx)
    idx[target_pos] = 0
    idx0 = tuple(idx)
    idx[target_pos] = 1
    return tuple(shape), idx0, tuple(idx)


def _rotate_pair(v0: np.ndarray, v1: np.ndarray, m: np.ndarray) -> None:
    """In place: (v0, v1) <- (m00 v0 + m01 v1, m10 v0 + m11 v1)."""
    a, b, c = m[0, 0] * v0, m[0, 1] * v1, m[1, 0] * v0
    v1 *= m[1, 1]
    v1 += c
    np.add(a, b, out=v0)


def _hadamard_pair(v0: np.ndarray, v1: np.ndarray) -> None:
    """In place: (v0, v1) <- (h v0 + h v1, h v0 - h v1), h = 1/sqrt(2):
    :func:`_rotate_pair`'s sums for the Hadamard matrix, as (-h) v1 is
    -(h v1) exactly, in four passes."""
    a = v0 * _SQRT1_2
    v1 *= _SQRT1_2
    np.add(a, v1, out=v0)
    np.subtract(a, v1, out=v1)


def _swap_pair(v0: np.ndarray, v1: np.ndarray) -> None:
    tmp = v0.copy()
    v0[...] = v1
    v1[...] = tmp


def _apply_dense(flat: np.ndarray, total_axes: int, m: np.ndarray, axes: tuple[int, ...]) -> None:
    """In-place k-qubit unitary on the given axes (first axis = MSB)."""
    k = len(axes)
    view = flat.reshape((2,) * total_axes + (flat.size >> total_axes,))
    # the gate's axes first, in its order, the others after them as they were
    moved = view.transpose((*axes, *(a for a in range(total_axes + 1) if a not in axes)))
    work = np.ascontiguousarray(moved).reshape(2**k, -1)
    moved[...] = (m @ work).reshape(moved.shape)


def _product(
    a: np.ndarray | tuple[Gate, ...], x: np.ndarray, overwrite: bool = False, axes=None
) -> np.ndarray:
    """a @ x, as a new array, for a 2-D ``x`` (2^k, rest) with contiguous
    rows, or a stack of them, each multiplied by ``a``. A real ``a`` takes
    a complex ``x`` as one real product over its interleaved real and
    imaginary parts, which never meet. A gate list ``a`` on a 2-D x's k
    leading qubits, qubit q at ``axes[q]`` among them (by default a list
    relabelled onto them), runs through the kernels on a copy of ``x``,
    upcast to complex when one of its gates is; with ``overwrite`` (the
    caller owns ``x`` and reads it no more) it runs in ``x`` itself when
    no upcast is due."""
    if isinstance(a, tuple):
        upcast = np.iscomplexobj(x) or any(map(_gate_needs_complex, a))
        out = x.astype(np.complex128 if upcast else np.float64, order="C", copy=not overwrite)
        k = x.shape[0].bit_length() - 1
        for g in a:
            _apply_gate_flat(out.reshape(-1), k, g, range(k) if axes is None else axes, False)
        return out
    if x.dtype.kind == "c" and a.dtype.kind == "f":
        return (a @ x.view(np.float64)).view(np.complex128)
    return a @ x


def _sandwich(op: tuple, rho: np.ndarray, own: bool) -> np.ndarray:
    """m rho m^dag for op = (a, phase_in, phase_out) of m (see
    :func:`_phased`), on rho gathered as (4^k, rest^2) with S's row bits,
    then its column bits, leading: a on the row bits as one product, then
    a^dag on the column bits as conj(a) on each row's (2^k, rest^2) block,
    one product batched over the rows. A gate list ``a``, relabelled onto
    S, runs its kernels on the row bits, then conjugated on the column
    bits, in ``rho`` itself when the caller ``own``s it (else nothing
    writes into ``rho``, which may be the stored state)."""
    a, phase_in, phase_out = op
    rows = math.isqrt(rho.shape[0])
    if phase_in is not None:
        rho = rho * phase_in.reshape(-1, 1)
    if isinstance(a, tuple):
        rho = _product(a, rho.reshape(rows, -1), own)
        k = rows.bit_length() - 1
        for g in a:
            _apply_gate_flat(rho.reshape(-1), 2 * k, g, range(k, 2 * k), True)
    else:
        half = _product(a, rho.reshape(rows, -1)).reshape(rows, rows, -1)
        rho = _product(a.conj(), half)
    rho = rho.reshape(rows * rows, -1)
    if phase_out is not None:
        rho = rho * phase_out.reshape(-1, 1)
    return rho


def _gate_needs_complex(gate: Gate) -> bool:
    # DenseBlock stores an exactly real matrix as float64
    return isinstance(gate, (PhaseS, PhaseSdg)) or (
        isinstance(gate, DenseBlock) and np.iscomplexobj(gate.matrix)
    )


def _apply_gate_flat(
    flat: np.ndarray, total_axes: int, gate: Gate, axes, conjugate: bool
) -> None:
    """Apply one gate to a flat buffer holding (2,)*total_axes[, extra].

    ``axes[q]`` is the axis of the gate's qubit q (a density matrix's
    column side passes range(n, 2n), a step's support its qubits'
    positions in it); ``conjugate`` applies the complex conjugate gate,
    which is what right-multiplication by the adjoint amounts to.
    """

    def rotate(pinned: tuple[tuple[int, int], ...], target: int, m: np.ndarray) -> None:
        v0, v1 = _pinned_views(flat, pinned, target)
        _rotate_pair(v0, v1, m)

    if isinstance(gate, Hadamard):
        _hadamard_pair(*_pinned_views(flat, (), axes[gate.qubit]))
    elif isinstance(gate, (PhaseS, PhaseSdg)):
        forward = isinstance(gate, PhaseS) != conjugate
        (v1,) = _pinned_views(flat, ((axes[gate.qubit], 1),), None)
        v1 *= 1j if forward else -1j
    elif isinstance(gate, PauliX):
        _swap_pair(*_pinned_views(flat, (), axes[gate.qubit]))
    elif isinstance(gate, Ry):
        rotate((), axes[gate.qubit], _ry_matrix(gate.angle))
    elif isinstance(gate, CNOT):
        _swap_pair(*_pinned_views(flat, ((axes[gate.control], 1),), axes[gate.target]))
    elif isinstance(gate, ControlledRy):
        rotate(((axes[gate.control], 1),), axes[gate.target], _ry_matrix(gate.angle))
    elif isinstance(gate, ConditionalRy):
        register = gate.register
        for x, angle in gate.angles:
            fixed = tuple(
                (axes[q], (x >> (len(register) - 1 - i)) & 1) for i, q in enumerate(register)
            )
            rotate(fixed, axes[gate.target], _ry_matrix(angle))
    elif isinstance(gate, DenseBlock):
        m = gate.matrix.conj() if conjugate else gate.matrix
        _apply_dense(flat, total_axes, m, tuple(axes[q] for q in gate.qubits))
    else:
        raise TypeError(f"unknown gate {gate!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Single-qubit relaxation/dephasing channel from three Kraus operators:

        E1 = [[1, 0], [0, sqrt(1 - eps_r - eps_d)]]
        E2 = [[0, sqrt(eps_d)], [0, 0]]
        E3 = [[0, 0], [0, sqrt(eps_r)]]

    applied independently to every qubit (ancilla included) right before
    each ancilla measurement. On the ancilla, only what reaches outcome 0
    matters: E1 leaves it as it is, E2 adds the eps_d * S rho S branch and
    E3 contributes nothing. The work-qubit channels commute with the
    ancilla measurement, so the engine applies them after outcome 0. A
    density matrix defers them off a step's support (see the module
    docstring and :func:`_channel_factors`).
    """

    eps_r: float
    eps_d: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eps_r <= 1.0 and 0.0 <= self.eps_d <= 1.0):
            raise ValueError("noise parameters must lie in [0, 1]")
        if self.eps_r + self.eps_d > 1.0:
            raise ValueError("eps_r + eps_d must not exceed 1")
        total = sum(e.conj().T @ e for e in self.kraus_operators())
        if np.abs(total - np.eye(2)).max() > 1e-12:
            raise AssertionError("Kraus completeness violated")

    def kraus_operators(self) -> list[np.ndarray]:
        e1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - self.eps_r - self.eps_d)]])
        e2 = np.array([[0.0, math.sqrt(self.eps_d)], [0.0, 0.0]])
        e3 = np.array([[0.0, 0.0], [0.0, math.sqrt(self.eps_r)]])
        return [e1.astype(complex), e2.astype(complex), e3.astype(complex)]

    @property
    def is_identity(self) -> bool:
        return self.eps_r == 0.0 and self.eps_d == 0.0


class MeasureResult(NamedTuple):
    """A measurement's outcome-0 probability (a named tuple: immutable and
    cheaper to build than a frozen dataclass, which every step pays)."""

    prob0: float


def _as_state_array(data: np.ndarray) -> np.ndarray:
    """Copy to float64 when exactly real, else complex128 (real-valued
    models then evolve entirely in real arithmetic: a noiseless LiH K0
    step took 10.0 us on a float64 state against 13.1 us on the same state
    and K0s in complex128, medians over 80 interleaved passes of the 61
    terms on a shared 2-vCPU Xeon, numpy 2.4)."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        if np.abs(arr.imag).max(initial=0.0) == 0.0:
            return arr.real.astype(np.float64)
        return arr.astype(np.complex128)
    return arr.astype(np.float64)


def _outcome(
    kept: float, jumped: float, rng: np.random.Generator | None, branch: bool
) -> tuple[MeasureResult, bool]:
    """The ancilla measurement rule, shared by every step path: postselect
    outcome 0.

    ``kept`` and ``jumped`` are the weights that reach outcome 0 without
    and with the ancilla's E2 jump, so prob0 is their sum. A sum over 1 by
    more than 1e-9, or a NaN sum, means a step that is not a measurement
    and raises; rounding below that clamps it to 1. A prob0 below the
    annihilation threshold raises. With ``branch`` (a statevector
    trajectory of a noisy ancilla), outcome 0 takes one draw r and keeps
    the jump branch when r prob0 >= kept. Returns the result and whether
    the jump branch is kept.
    """
    if rng is None and branch:
        raise ValueError("a sampled noise branch needs an rng")
    if not kept + jumped <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError(f"ancilla-0 probability {kept + jumped!r} exceeds 1 or is NaN")
    prob0 = min(kept + jumped, 1.0)
    if prob0 < ANNIHILATION_THRESHOLD:
        raise EvolutionAnnihilatedError(
            f"ancilla-0 probability {prob0:.3e} below {ANNIHILATION_THRESHOLD}"
        )
    jump = branch and rng.random() * prob0 >= kept
    return MeasureResult(prob0), jump


def _squared_norm(x: np.ndarray) -> float:
    """|x|^2 of a contiguous array: one dot on float64, ``vdot`` on complex."""
    flat = x.ravel()
    return float(flat.dot(flat)) if flat.dtype.kind == "f" else float(np.vdot(flat, flat).real)


class _State:
    """Plumbing shared by the two state types: dtype promotion, the energy
    and the stored qubit order.

    The state is kept in ``_stored`` with its bits, most significant
    first, carrying the labels ``_order``: q for qubit q, and on a density
    matrix n + q for its column bit (None is canonical). A step moves it
    into the order it works in (:func:`_step_order`) and leaves it there;
    ``data``, and so every gate (and a statevector's energy), first
    restores the canonical order (and divides a statevector to unit
    norm). A copy keeps the stored order, and a density matrix reads its
    energy, trace and subspace weight in it. A
    subclass says how many ``_sides`` carry labels (1 on a vector, 2 on a
    matrix) and supplies ``_expectation`` and ``_run_step``, which runs
    call, and ``apply_gate`` and ``measure_ancilla``, a gate or a
    whole-register measurement on ``data`` that no step calls (tests and
    the benchmark's spans use them).
    """

    n_qubits: int
    _sides: int

    @property
    def data(self) -> np.ndarray:
        """The state in canonical order (on a density matrix, all that is
        owed applied; a statevector divided to unit norm)."""
        self._flush()
        return self._stored

    @data.setter
    def data(self, entries: np.ndarray) -> None:
        self._stored = np.ascontiguousarray(entries)
        self._order: tuple[int, ...] | None = None

    def _flush(self) -> None:
        """Put the stored state back in canonical order."""
        if self._order is not None:
            n = self.n_qubits
            shape, axes = _transposition(self._order, tuple(range(self._sides * n)))
            moved = np.ascontiguousarray(self._stored.reshape(shape).transpose(axes))
            self._stored, self._order = moved.reshape((2**n,) * self._sides), None

    def _gather(self, support: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
        """The state in the order a step on ``support`` works in, as
        (2^k, rest) on a vector and (4^k, rest^2) on a matrix, and that
        order: a view when stored so, else a contiguous copy. A state
        stored in that order already (as after a step on the same
        support) comes back reshaped, with nothing looked up or moved: on
        a vector, an order that leads with S; on a matrix, S's rows, S's
        columns, then the other rows and their columns in the same order."""
        stored, k, n = self._order, len(support), self.n_qubits
        if stored is not None and stored[:k] == support and (
            self._sides == 1
            or stored[k : 2 * k] + stored[n + k :]
            == tuple(n + q for q in support + stored[2 * k : n + k])
        ):
            return self._stored.reshape(2 ** (k * self._sides), -1), stored
        order, shape, axes = _step_order(self.n_qubits, self._sides, self._order, support)
        moved = np.ascontiguousarray(self._stored.reshape(shape).transpose(axes))
        return moved.reshape(2 ** (len(support) * self._sides), -1), order

    def copy(self):
        """An independent state equal to this one, stored in the same order
        (on a density matrix owing the same channel): nothing is moved or
        applied, on the copy or on this state."""
        twin = copy.copy(self)
        twin._stored = self._stored.copy()
        return twin

    def _ensure_complex(self) -> None:
        if not np.iscomplexobj(self.data):
            self.data = self.data.astype(np.complex128)

    def expectation(self, h: PauliHamiltonian) -> float:
        """Energy of the state under ``h``, identity offset included."""
        if h.n_qubits != self.n_qubits:
            raise ValueError("Hamiltonian dimension does not match the state")
        return self._expectation(h)


class StateVector(_State):
    """Statevector over ``n_qubits``, read unit-norm.

    The stored vector is the state times a scale: ``_norm2`` is its
    squared norm (1 for a vector set through ``data``). A measurement
    keeps its branch as it comes, unnormalized; its prob0 is the ratio of
    the branch's squared norm to ``_norm2``, which then becomes the
    branch's. ``data`` divides by sqrt(``_norm2``) once, when the state
    is read, and so does a step whose ``_norm2`` has fallen below
    ``NORM2_RESCALE_THRESHOLD``, before it can underflow.

    Stored as float64 while all applied gates are real, upcast to
    complex128 on the first genuinely complex operation.
    """

    _sides = 1

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        self.n_qubits = n_qubits
        if amplitudes is None:
            self.data = np.zeros(2**n_qubits)
            self._stored[0] = 1.0
        else:
            amplitudes = np.ravel(amplitudes)
            if amplitudes.shape[0] != 2**n_qubits:
                raise ValueError("amplitude count does not match qubit count")
            self.data = _as_state_array(amplitudes)

    @_State.data.setter
    def data(self, entries: np.ndarray) -> None:
        _State.data.fset(self, entries)
        self._norm2 = 1.0

    def _flush(self) -> None:
        """Put the vector back in canonical order, then divide it to unit
        norm."""
        super()._flush()
        self._normalize()

    def _normalize(self) -> None:
        if self._norm2 != 1.0:
            self._stored /= math.sqrt(self._norm2)
            self._norm2 = 1.0

    def _keep(self, branch: np.ndarray, norm2: float, order: tuple | None) -> None:
        """Store a step's kept ``branch``, in ``order``, whose squared norm
        is ``norm2``."""
        self._stored, self._order, self._norm2 = branch, order, norm2
        if norm2 < NORM2_RESCALE_THRESHOLD:
            self._normalize()

    def _measure(
        self, out: np.ndarray, out1: np.ndarray | None, eps_d: float, rng, order: tuple | None
    ) -> MeasureResult:
        """The measurement stage, on the ancilla-0 branch ``out`` and, when
        the ancilla can jump, its ancilla-1 branch ``out1``, which reaches
        outcome 0 with weight ``eps_d``: each weight is its branch's
        squared norm over ``_norm2``, and the branch kept is stored as it
        is."""
        kept = _squared_norm(out)
        kept1 = 0.0 if out1 is None else _squared_norm(out1)
        result, jump = _outcome(
            kept / self._norm2, eps_d * kept1 / self._norm2, rng, out1 is not None
        )
        if jump:
            self._keep(out1, kept1, order)
        else:
            self._keep(out, kept, order)
        return result

    def apply_gate(self, gate: Gate) -> None:
        if _gate_needs_complex(gate):
            self._ensure_complex()
        _apply_gate_flat(self.data, self.n_qubits, gate, range(self.n_qubits), False)

    def measure_ancilla(
        self,
        c: np.ndarray,
        s: np.ndarray,
        eps_d: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> MeasureResult:
        """Postselect an ancilla given as its per-basis-state factors, the
        measurement stage of a step on the whole register.

        ``c`` and ``s`` are the cos and sin of half the ancilla's rotation
        angle on each work basis state, and ``eps_d`` weights the branch
        that the ancilla's E2 jump brings to outcome 0. So prob0 is
        sum_x (c_x^2 + eps_d s_x^2) w_x, with w the basis-state weights.
        Outcome 0 keeps (C rho C + eps_d S rho S) / prob0 (a statevector
        samples one of the two branches, which needs ``rng``).
        """
        psi = self.data
        return self._measure(c * psi, s * psi if eps_d > 0.0 else None, eps_d, rng, None)

    def _run_step(self, step: BoundStep, rng) -> MeasureResult:
        noise = step.noise
        x, order = self._gather(step.support)
        first, second, post = step.ops
        if second is None:  # K0: one product and one dot
            # dot, not @: numpy dispatches it in about half the time here
            if x.dtype.kind == "c" and first.dtype.kind == "f":  # see _product
                out = first.dot(x.view(np.float64)).view(np.complex128)
            else:
                out = first.dot(x)
            kept = _squared_norm(out)
            result, _ = _outcome(kept / self._norm2, 0.0, rng, False)
            self._keep(out, kept, order)
            return result
        if noise is not None and rng is None:
            raise ValueError("statevector noise is sampled and needs an rng")
        eps_d = 0.0 if noise is None else noise.eps_d
        c, s = second  # after Pre_S or Pre's gate list
        x = _product(first, x, overwrite=not np.may_share_memory(x, self._stored))
        out, out1 = c[:, None] * x, s[:, None] * x if eps_d > 0.0 else None
        result = self._measure(out, out1, eps_d, rng, order)
        if noise is not None:  # a trajectory: the sampled work-qubit noise, then Post
            self.sample_kraus(noise, rng)
        if post is not None:  # on the kept branch, a buffer of the step's own
            self._stored = _product(post, self._stored, overwrite=True)
        return result

    def _expectation(self, h: PauliHamiltonian) -> float:
        # one gather per distinct X mask, see PauliHamiltonian.x_mask_diagonals
        psi = self.data
        basis = np.arange(psi.shape[0])
        total = h.identity_offset
        for x_mask, diagonal in h.x_mask_diagonals:
            total += float(np.vdot(psi[basis ^ x_mask], psi * diagonal).real)
        return float(total)

    def sample_kraus(self, model: NoiseModel, rng: np.random.Generator) -> None:
        """Trajectory-mode noise: draw one Kraus branch per qubit, qubit 0
        first, on that qubit's bit wherever the stored order puts it. Each
        qubit's branch probabilities are ratios to the carried squared
        norm, and the branch drawn sets the next one: no qubit divides."""
        if model.is_identity:
            return
        keep = 1.0 - model.eps_r - model.eps_d
        flat = self._stored.reshape(-1)
        order = range(self.n_qubits) if self._order is None else self._order
        norm2 = self._norm2
        for q in range(self.n_qubits):
            v0, v1 = _pinned_views(flat, (), order.index(q))
            one = float(np.real(np.vdot(v1, v1)))
            p_one = one / norm2
            p2 = model.eps_d * p_one
            p3 = model.eps_r * p_one
            p1 = max(0.0, 1.0 - p2 - p3)
            r = rng.random()
            if r < p1:  # E1: damp the |1> amplitude
                v1 *= math.sqrt(keep)
                norm2 = float(np.real(np.vdot(v0, v0))) + keep * one
            elif r < p1 + p2:  # E2: jump |1> -> |0>
                v0[...] = v1
                v1[...] = 0.0
                norm2 = one
            else:  # E3: project onto |1>
                v0[...] = 0.0
                norm2 = one
        self._keep(self._stored, norm2, self._order)


class DensityMatrix(_State):
    """Dense 2^n x 2^n density matrix; gates act as U rho U^dag.

    Like :class:`StateVector`, entries stay float64 until a genuinely
    complex gate arrives.

    A step leaves the noise channel of the qubits outside its support
    owed: the state keeps the matrix without it and a per-qubit count of
    the applications still to come (all of one :class:`NoiseModel`). A
    later step applies what its own support owes (or composes it into its
    superoperator), and ``data`` applies all of it. The energy, ``trace``
    and ``subspace_weight`` see the channel in full without applying it:
    they read the stored matrix against the observable's image under the
    adjoint of the owed channel (see :func:`_adjoint_diagonals` and
    :func:`_adjoint_projector`), which leaves the matrix, its order and
    its counts as they are.
    """

    _sides = 2

    def __init__(self, n_qubits: int, entries: np.ndarray | None = None):
        self.n_qubits = n_qubits
        self._noise: NoiseModel | None = None  # the model of the owed counts
        self._reads: dict[str, tuple] = {}  # see _adjoint_read
        dim = 2**n_qubits
        if entries is None:
            self.data = np.zeros((dim, dim))
            self._stored[0, 0] = 1.0
        else:
            entries = np.asarray(entries)
            if entries.shape != (dim, dim):
                raise ValueError("entry matrix does not match qubit count")
            self.data = _as_state_array(entries)

    @_State.data.setter
    def data(self, entries: np.ndarray) -> None:
        _State.data.fset(self, entries)
        self._owed = [0] * self.n_qubits

    def copy(self) -> DensityMatrix:
        twin = super().copy()
        twin._owed, twin._reads = list(self._owed), dict(self._reads)
        return twin

    def _flush(self) -> None:
        """Put the matrix back in canonical order, then apply what is owed."""
        super()._flush()
        if any(self._owed):
            _channel(self._stored, self._noise, tuple(self._owed))
            self._owed = [0] * self.n_qubits

    def _adopt(self, model: NoiseModel) -> None:
        """Owe applications of ``model`` from now on, applying those of
        another model first."""
        if model != self._noise:
            self._flush()
            self._noise = model

    def trace(self) -> float:
        """tr rho, summed over the stored diagonal: the owed channel keeps
        the trace, and a stored order moves the diagonal entries only."""
        rows, columns = _flat_positions(self.n_qubits, self._order)
        return float(self._stored.reshape(-1)[rows + columns].real.sum())

    def subspace_weight(self, basis: np.ndarray) -> float:
        """Tr(B B^dag rho) for the orthonormal columns B of ``basis``,
        without a flush: Tr(N^dag(B B^dag) rho~), with rho~ the stored
        matrix and N what it owes, as one ``vdot`` of the flat buffers
        (:func:`_adjoint_projector`). A matrix that owes nothing in
        canonical order reads B^dag rho B instead and builds no projector."""
        owed = tuple(self._owed)
        if self._order is None and not any(owed):
            amps = self._stored @ basis
            return float(sum(np.real(np.vdot(basis[:, d], amps[:, d])) for d in range(basis.shape[1])))
        projector = self._adjoint_read(
            "projector", basis, lambda: _adjoint_projector(basis, self._noise, owed, self._order)
        )
        return float(np.vdot(projector, self._stored.reshape(-1)).real)

    def _adjoint_read(self, kind: str, source, build):
        """``build()``, an adjoint observable of ``source`` for the owed
        counts and the stored order, kept as the one entry of its ``kind``
        until a read for another source, model, count or order replaces
        it. The entry holds ``source``, which is compared by identity."""
        key = (self._noise, tuple(self._owed), self._order)
        entry = self._reads.get(kind)
        if entry is None or entry[0] is not source or entry[1] != key:
            entry = self._reads[kind] = (source, key, build())
        return entry[2]

    def apply_gate(self, gate: Gate) -> None:
        if _gate_needs_complex(gate):
            self._ensure_complex()
        n = self.n_qubits
        _apply_gate_flat(self.data, 2 * n, gate, range(n), False)
        _apply_gate_flat(self.data, 2 * n, gate, range(n, 2 * n), True)

    def apply_noise(self, model: NoiseModel) -> None:
        """Kraus channel on every qubit: one more owed application on each,
        then everything owed is applied (see :func:`_channel`)."""
        if model.is_identity:
            return
        self._adopt(model)
        self._owed = [m + 1 for m in self._owed]
        self._flush()

    def measure_ancilla(
        self,
        c: np.ndarray,
        s: np.ndarray,
        eps_d: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> MeasureResult:
        """:meth:`StateVector.measure_ancilla` on a density matrix, which
        keeps both branches: the weight stage of a sandwich step on the
        whole register, with W = c c^T + eps_d s s^T."""
        weights = np.outer(c, c) + eps_d * np.outer(s, s)
        whole = BoundStep(type(self), None, tuple(range(self.n_qubits)), (None, weights, None))
        return self._run_step(whole, rng)

    def _run_step(self, step: BoundStep, rng) -> MeasureResult:
        # The step runs on, and stores, rho gathered with S's row bits, then
        # S's column bits, then the rest's row bits and their column bits
        # in one order: as (4^k, rest^2), S's vectorized block on the
        # leading axis. Traces do not change under the move. prob0 is a row
        # vector on the partial trace over the rest: T_S's v before the
        # step, or diag(W) on S's diagonal after Pre_S (a phase_out that
        # an X-mask stage holds instead is 1 there). The channel on a
        # qubit outside S commutes with the whole step, so it is only
        # counted as owed.
        support, noise = step.support, step.noise
        if noise is not None:
            self._adopt(noise)
        k = len(support)
        rho, order = self._gather(support)
        owed = tuple(self._owed[q] for q in support)
        superop = len(step.ops) == 2
        if superop:  # what S owes composes into T_S and v
            t_s, row = step.ops
            if any(owed):
                owed_superop = _channel_superop(self._noise, owed)
                t_s, row = t_s @ owed_superop, row @ owed_superop
            traced = rho
        else:
            pre, weights, post = step.ops
            if isinstance(weights, _MaskStage):
                row = weights.row
            else:
                if isinstance(weights, tuple):  # a gate-list step: W from (c_S, s_S)
                    c, s = weights
                    eps_d = 0.0 if noise is None else noise.eps_d
                    weights = np.outer(c, c) + eps_d * np.outer(s, s)
                row = weights.diagonal()
            view = np.may_share_memory(rho, self._stored)
            if any(owed):  # before Pre_S, where its passes run long
                _channel(rho, self._noise, owed, columns=k)
                if view:  # the state itself took it
                    for q in support:
                        self._owed[q] = 0
            if pre is not None:
                rho = _sandwich(pre, rho, own=not view)
            # outcome 0 weights entry (x, y) of every block on S by
            # c_x c_y + eps_d s_x s_y; both ancilla branches are kept, so
            # only their summed weight counts
            traced = rho[:: 2**k + 1]
        rest = math.isqrt(rho.shape[1])
        prob0 = float(np.dot(row, traced[:, :: rest + 1].sum(axis=1)).real)
        result, _ = _outcome(prob0, 0.0, rng, False)
        if superop:
            rho = _product(t_s * (1.0 / result.prob0), rho)
        else:  # W, then S's own channel
            if isinstance(weights, _MaskStage):
                rho = _by_mask(weights.stack, rho, 1.0 / result.prob0)
            else:
                rho = rho * (weights / result.prob0).reshape(-1, 1)
                if noise is not None:
                    _channel(rho, noise, (1,) * k, columns=k)
            if post is not None:
                rho = _sandwich(post, rho, own=True)
        self._stored, self._order = rho, order
        grows = int(noise is not None)
        self._owed = [0 if q in support else m + grows for q, m in enumerate(self._owed)]
        return result

    def _expectation(self, h: PauliHamiltonian) -> float:
        # Tr(H rho) = sum_x sum_b d_x[b] rho[b, b ^ x], one gather per
        # distinct X mask (see PauliHamiltonian.x_mask_diagonals), read
        # without a flush as Tr(N^dag(H) rho~): the diagonals of N^dag(H)
        # (see _adjoint_diagonals) against the stored matrix, whose entry
        # (b, c) sits at rows[b] + columns[c]. As columns is linear over
        # XOR, columns[b ^ x] = columns[b] ^ columns[x].
        diagonals = h.x_mask_diagonals
        owed = tuple(self._owed)
        if any(owed):
            diagonals = self._adjoint_read(
                "diagonals", h, lambda: _adjoint_diagonals(h, self._noise, owed)
            )
        flat = self._stored.reshape(-1)
        rows, columns = _flat_positions(self.n_qubits, self._order)
        total = h.identity_offset * self.trace()  # N^dag(I) = I
        for x_mask, diagonal in diagonals:
            total += float(np.dot(diagonal, flat[rows + (columns ^ columns[x_mask])]).real)
        return total


# Qubits per elementwise factor of the channel, so that no factor holds
# more than 4^6 entries (32 KB)
_FACTOR_QUBITS = 6


@lru_cache(maxsize=128)
def _channel_factors(
    model: NoiseModel, counts: tuple[int, ...]
) -> tuple[tuple[float, ...], np.ndarray]:
    """``model``'s channel applied counts[i] times to qubit i of a few
    qubits, folded per qubit into one exact channel: the weight
    1 - (1 - eps_d)^m that jumps from |1><1| to |0><0|, and the read-only
    elementwise factor, over (row bits, column bits), of the tensor
    product of [[1, delta^m], [delta^m, (1 - eps_d)^m]] with
    delta = sqrt(1 - eps_r - eps_d)."""
    keep = 1.0 - model.eps_d
    damp = math.sqrt(1.0 - model.eps_r - model.eps_d)
    # 1 - keep^m as eps_d (1 + keep + ... + keep^(m-1)): exact for m = 1
    jumps = tuple(model.eps_d * sum(keep**j for j in range(m)) for m in counts)
    factor = np.ones((1, 1))
    for m in counts:
        factor = np.kron(factor, [[1.0, damp**m], [damp**m, keep**m]])
    factor.setflags(write=False)
    return jumps, factor


def _channel(
    rho: np.ndarray,
    model: NoiseModel,
    counts: tuple[int, ...],
    adjoint: bool = False,
    columns: int | None = None,
) -> None:
    """In place on a contiguous buffer of 4^n entries, of any shape, whose
    bits hold each qubit's row bit and column bit: ``model``'s channel
    applied counts[i] times to qubit i for i < len(counts). Qubit i's row
    bit is the buffer's i-th most significant bit and its column bit sits
    ``columns`` bits after it: n (the default) in a 2^n x 2^n matrix, k in
    one gathered for a step on k qubits, whose row bits and then column
    bits lead (a sandwich step too wide for a :class:`_MaskStage` applies
    it there to rows already scaled by W / prob0). With ``adjoint``,
    the adjoint channel N^dag instead, which maps an observable A to the
    one whose expectation on rho equals A's on N(rho).

    Per qubit the three Kraus operators reduce to block updates split by
    that qubit's row/column bit:

        rho_00 += (1 - keep) * rho_11     (E2 jump)
        rho_01 *= delta,  rho_10 *= delta
        rho_11 *= keep                    (E1 damping + E3)

    with keep = (1 - eps_d)^m and delta = sqrt(1 - eps_r - eps_d)^m.
    Channels on distinct qubits commute, and each is (scaling) o (jump),
    so every few qubits take their jumps and then one elementwise
    multiply. The jump passes run long for the leading qubits, which is
    where a step's gathered layout puts its support. The jumps run before
    the factor: moving the factor ahead of them (into a step's weight W,
    say) would divide each jump weight by keep, which is 0 at eps_d = 1,
    a model ``NoiseModel`` admits (:func:`_mask_stage` keeps this order
    within each X-mask block). The adjoint of
    (scaling) o (jump) is (reversed jump) o (scaling), as the scaling is
    real and elementwise: A_11 = keep A_11 + (1 - keep) A_00.
    """
    flat = rho.reshape(-1)
    if columns is None:
        columns = (flat.size.bit_length() - 1) // 2

    def jump_passes(first: int, jumps: tuple[float, ...]) -> None:
        for q, jump in enumerate(jumps, first):
            if jump:
                blocks = flat.reshape(2**q, 2, 2 ** (columns - 1), 2, -1)
                if adjoint:
                    blocks[:, 1, :, 1] += jump * blocks[:, 0, :, 0]
                else:
                    blocks[:, 0, :, 0] += jump * blocks[:, 1, :, 1]

    for first in range(0, len(counts), _FACTOR_QUBITS):
        jumps, factor = _channel_factors(model, counts[first : first + _FACTOR_QUBITS])
        if not adjoint:
            jump_passes(first, jumps)
        width = len(jumps)
        view = flat.reshape(2**first, 2**width, 2 ** (columns - width), 2**width, -1)
        view *= factor[None, :, None, :, None]
        if adjoint:
            jump_passes(first, jumps)


def _adjoint_diagonals(
    h: PauliHamiltonian, model: NoiseModel, counts: tuple[int, ...]
) -> tuple[tuple[int, np.ndarray], ...]:
    """``h.x_mask_diagonals`` of N^dag(H), N ``model``'s channel applied
    counts[q] times to qubit q; read-only. d_x[b] is entry (b ^ x, b) of
    H, so on a qubit q in the X mask each of its entries is off the
    diagonal and takes delta^m, and elsewhere b's bit q is both the row
    and the column bit, where the adjoint channel of :func:`_channel` sets
    d_x[b_q = 1] to keep^m d_x[b_q = 1] + (1 - keep^m) d_x[b_q = 0], with
    the same folded values (:func:`_channel_factors`)."""
    n = h.n_qubits
    out = []
    for x_mask, diagonal in h.x_mask_diagonals:
        d = diagonal.copy()
        for q, m in enumerate(counts):
            if m:
                (jump,), factor = _channel_factors(model, (m,))
                if (x_mask >> (n - 1 - q)) & 1:
                    d *= factor[0, 1]
                else:
                    half = d.reshape(2**q, 2, -1)
                    half[:, 1] *= factor[1, 1]
                    half[:, 1] += jump * half[:, 0]
        d.setflags(write=False)
        out.append((x_mask, d))
    return tuple(out)


def _adjoint_projector(
    basis: np.ndarray, model: NoiseModel, counts: tuple[int, ...], order: tuple[int, ...] | None
) -> np.ndarray:
    """N^dag(B B^dag) for the columns B of ``basis``, N ``model``'s
    channel applied counts[q] times to qubit q (:func:`_channel` with
    ``adjoint``), flat in the layout of a matrix stored in ``order``
    (labels as in :class:`_State`), so that its ``vdot`` with that matrix
    is the expectation; read-only. N^dag(B B^dag) is Hermitian, so the
    ``vdot``'s conjugate transposes it back."""
    n = len(counts)
    projector = basis @ basis.conj().T
    if any(counts):
        _channel(projector, model, counts, adjoint=True)
    if order is not None:
        shape, axes = _transposition(tuple(range(2 * n)), order)
        projector = projector.reshape(shape).transpose(axes)
    projector = np.ascontiguousarray(projector).reshape(-1)
    projector.setflags(write=False)
    return projector


@lru_cache(maxsize=64)
def _flat_positions(n: int, order: tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """Where a 2^n x 2^n matrix stored in ``order`` (labels as in
    :class:`_State`) keeps entry (b, c): at flat position rows[b] +
    columns[c]. Read-only."""
    labels = range(2 * n) if order is None else order
    shift = {label: 2 * n - 1 - i for i, label in enumerate(labels)}
    basis = np.arange(2**n)
    rows, columns = np.zeros(2**n, dtype=np.int64), np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        bit = (basis >> (n - 1 - q)) & 1
        rows |= bit << shift[q]
        columns |= bit << shift[n + q]
    rows.setflags(write=False)
    columns.setflags(write=False)
    return rows, columns


@lru_cache(maxsize=128)
def _channel_superop(model: NoiseModel, counts: tuple[int, ...]) -> np.ndarray:
    """Read-only 4^k x 4^k matrix of ``_channel(rho, model, counts)`` on
    k = len(counts) qubits, acting on rho.reshape(-1) (row bits, then
    column bits): ``_channel`` on the 4^k identity columns vec(E_ab), as
    on a matrix gathered for a step on the k qubits."""
    superop = np.eye(4 ** len(counts))
    _channel(superop, model, counts, columns=len(counts))
    superop.setflags(write=False)
    return superop


class _MaskStage(NamedTuple):
    """The middle stage of a sandwich step on k <= ``MASK_STACK_MAX_SUPPORT``
    qubits: the outcome-0 weight W, the channel on S and the phase
    factors between Pre_S's and Post_S's products, as one product.

    None of them changes an entry's X mask x = r XOR c (r and c its row and
    column on S; :func:`_adjoint_diagonals` relies on the same), so on the
    4^k entries of S's block, ordered by X mask (:func:`_mask_order`), the
    stage is block-diagonal: ``stack[x]`` = diag(F_x) Z_x diag(W_x), over
    the 2^k entries (r, r ^ x) indexed by r. W_x is W with Pre_S's
    ``phase_out`` folded in, F_x the channel's elementwise factor
    (:func:`_channel_factors`) with Post_S's ``phase_in`` folded in, and
    Z_x = (x) over q of (x_q ? I : [[1, eps_d], [0, 1]]) on r's bit q
    holds the jumps, which move weight from r_q = c_q = 1 to 0 only. The
    jumps act before F, as in :func:`_channel`. ``row`` is diag W, which
    gives prob0 on Pre's output."""

    row: np.ndarray
    stack: np.ndarray


@lru_cache(maxsize=8)
def _mask_order(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only positions that order the 4^k entries (r, c) of a
    k-qubit block, flat at r 2^k + c, by X mask: entry x 2^k + r of the
    first is (r, r ^ x), and the second inverts it."""
    r = np.arange(2**k)
    order = (r * 2**k + (r ^ r[:, None])).reshape(-1)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    order.setflags(write=False)
    inverse.setflags(write=False)
    return order, inverse


def _mask_stage(
    weights: np.ndarray, noise: NoiseModel | None, phase_out, phase_in
) -> _MaskStage:
    """The :class:`_MaskStage` of W = ``weights`` on k qubits: ``phase_out``
    (Pre_S's, or None) and W, then one application of ``noise``'s channel
    on the k qubits (none for None), then ``phase_in`` (Post_S's, or
    None)."""
    size = weights.shape[0]
    k = size.bit_length() - 1
    order, _ = _mask_order(k)
    if noise is None:
        jumps, factor = (0.0,) * k, np.ones((size, size))
    else:
        jumps, factor = _channel_factors(noise, (1,) * k)
    entries = weights if phase_out is None else weights * phase_out
    factor = factor if phase_in is None else factor * phase_in
    jump_z = np.ones((1, 1, 1))  # Z_x[r out, r in], a Kronecker product over x, r out and r in
    for jump in jumps:  # qubit 0 first, the most significant bit of x and r
        pair = np.array([[[1.0, jump], [0.0, 1.0]], np.eye(2)])  # [x_q, r_q out, r_q in]
        width = 2 * len(jump_z)
        jump_z = np.einsum("xab,ycd->xyacbd", jump_z, pair).reshape(width, width, width)
    f_x, w_x = (a.reshape(-1)[order].reshape(size, size) for a in (factor, entries))
    stack = f_x[:, :, None] * jump_z * w_x[:, None, :]
    row = np.ascontiguousarray(weights.diagonal())
    stack.setflags(write=False)
    row.setflags(write=False)
    return _MaskStage(row, stack)


def _by_mask(stack: np.ndarray, rho: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times a :class:`_MaskStage` ``stack`` on rho gathered as
    (4^k, rest^2): one take into X-mask order, one product batched over
    the masks (a real stack takes a complex rho as a real product, see
    :func:`_product`), one scale and one take back, as a new array."""
    size = stack.shape[0]
    order, inverse = _mask_order(size.bit_length() - 1)
    out = _product(stack, rho.take(order, axis=0).reshape(size, size, -1))
    out *= scale
    return out.reshape(size * size, -1).take(inverse, axis=0)


def _transposition(order: tuple[int, ...], target: tuple[int, ...]) -> tuple[tuple, tuple]:
    """How to move a buffer whose bits, most significant first, carry the
    labels ``order`` into ``target``'s order of the same labels: the shape
    to view it in and the axis permutation. Labels adjacent in both orders
    share one axis, so the copy runs long inner loops."""
    place = [target.index(label) for label in order]
    starts = [i for i, p in enumerate(place) if i == 0 or p != place[i - 1] + 1]
    shape = tuple(2 ** (end - i) for i, end in zip(starts, starts[1:] + [len(place)]))
    return shape, tuple(sorted(range(len(starts)), key=lambda r: place[starts[r]]))


@lru_cache(maxsize=4096)
def _step_order(n: int, sides: int, order: tuple | None, support: tuple[int, ...]) -> tuple:
    """The order a step on ``support`` works in, from a state stored in
    ``order`` (labels as in :class:`_State`, on ``sides`` 1 or 2), and the
    transposition into it. S's bits come first, then the other qubits' as
    stored now. On a matrix these are row bits: S's column bits come
    right after S's row bits, so that S's block is vectorized on the
    leading axis, and the other qubits' column bits come last, in their
    rows' order, which the partial trace needs. Leaving the other qubits
    as they are, not canonical, keeps them in long runs that the copy
    moves whole.
    """
    current = tuple(range(sides * n)) if order is None else order
    rest = tuple(q for q in current if q < n and q not in support)
    target = support + rest
    if sides == 2:
        target = support + tuple(n + q for q in support) + rest + tuple(n + q for q in rest)
    return (target, *_transposition(current, target))


@dataclass(frozen=True, eq=False)
class BoundStep:
    """A step circuit lowered once for the state type and noise of a run:
    ``ops`` on its ``support`` S, the sorted work qubits its gates touch.

    On a statevector ``ops`` is (K0, None, None), K0 = Post_S diag(c_S)
    Pre_S, for a noiseless step, Post's kernels run on diag(c_S) Pre_S so
    that a K0 real in exact arithmetic is exactly real and float64 (see
    the module docstring), and (Pre_S, (c_S, s_S), Post_S) for a
    trajectory, the form a wide step takes too. On a density matrix it is
    (T_S, v) on at most ``SUPEROP_MAX_SUPPORT`` qubits, the step's
    superoperator on vec(rho_S) and the row vector whose product with vec
    of the partial trace over the rest is prob0, and (Pre_S, W, Post_S) on
    wider ones, with W[x, y] = c_x c_y + eps_d s_x s_y and each of Pre_S
    and Post_S an (a, phase_in, phase_out) triple of :func:`_phased` (a
    real where it can be), None for an empty gate list. On at most
    ``MASK_STACK_MAX_SUPPORT`` qubits W is a :class:`_MaskStage` instead,
    which holds diag W, and W, the channel on S, Pre_S's ``phase_out``
    and Post_S's ``phase_in`` as one stack over X masks; those two phase
    factors are then None in the triples. Every one of these acts on the matrix gathered
    in one layout, S's row bits, then its column bits, then the rest's
    (see :func:`_step_order`): T_S and v on the leading 4^|S| axis, W and
    the phase factors entry by entry on S's block (the stack on its
    entries taken in X-mask order, see :func:`_by_mask`), a on S's row
    bits and a^dag on its column bits (see :func:`_sandwich`). A step wider than
    ``FUSED_MAX_SUPPORT`` holds (Pre, (c_S, s_S), Post) instead, Pre and
    Post its gate lists relabelled onto S: bare on a statevector, as
    (gates, None, None) triples on a density matrix (None when empty),
    which builds W from (c_S, s_S) when it runs rather than hold its
    4^|S| entries.
    """

    state_type: type
    noise: NoiseModel | None
    support: tuple[int, ...]
    ops: tuple


def _positions(gate: Gate, position: dict[int, int]) -> tuple[int, ...]:
    """``position[q]`` for each qubit q of ``gate``, in ``qubits_of`` order."""
    qubits = qubits_of(gate)
    outside = [q for q in qubits if q not in position]
    if outside:
        raise ValueError(f"{gate!r} acts on qubit(s) {outside} outside the step's support")
    return tuple(position[q] for q in qubits)


def _relabel(gate: Gate, position: dict[int, int]) -> Gate:
    """``gate`` with qubit q renumbered to ``position[q]``: its own
    constructor on the moved qubits, which every gate takes in
    ``qubits_of`` order, after its angle where it has one."""
    moved = _positions(gate, position)
    if isinstance(gate, DenseBlock):
        return gate.on_qubits(moved)
    if isinstance(gate, ConditionalRy):
        return ConditionalRy(moved[:-1], gate.angles, moved[-1])
    if isinstance(gate, (Ry, ControlledRy)):
        return type(gate)(gate.angle, *moved)
    return type(gate)(*moved)


def _on_support(gates: tuple[Gate, ...], support: tuple[int, ...]) -> np.ndarray:
    """The 2^k x 2^k matrix of work gates on their support (k qubits),
    built by running the state kernels on the identity columns, qubit
    support[i] on axis i. A leading dense block on the whole support in
    order is its own matrix there."""
    if gates and isinstance(gates[0], DenseBlock) and gates[0].qubits == support:
        m, gates = gates[0].matrix, gates[1:]
    else:
        m = np.eye(2 ** len(support))
    return _as_state_array(_product(gates, m, axes={q: i for i, q in enumerate(support)}))


def _phased(m: np.ndarray) -> tuple:
    """A sandwich operator m as (a, phase_in, phase_out), so that
    m rho m^dag = (a (rho * phase_in) a^dag) * phase_out elementwise. When
    m = a diag(d) (each column carries one phase; S^dag acting first does
    this) or m = diag(d) a (each row does), with a exactly real, the phase
    factor d_x d_y^* is phase_in or phase_out respectively and the other
    is None. Otherwise ``(m, None, None)``."""
    if np.iscomplexobj(m):
        for axis in (0, 1):
            lead = np.take_along_axis(m, abs(m).argmax(axis, keepdims=True), axis)
            size = abs(lead)  # parts divided apart: a quarter turn stays exact
            d = lead.real / size + 1j * (lead.imag / size)
            a = m * d.conj()
            if not a.imag.any():
                phases = [None, None]
                phases[axis] = np.outer(d, d.conj())
                return a.real.copy(), *phases
    return m, None, None


def _fold_rotation(
    rotation: tuple[Gate, ...], support: tuple[int, ...], ancilla: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ancilla rotation folded into the factors (c, s) on the support:
    the cos and sin of half the ancilla's total rotation angle per basis
    state of the support. The rotation's gates are y-rotations of the
    ancilla controlled on work qubits, so they commute and the total angle
    at a basis state is the sum of the angles each gate turns there.
    Raises ``ValueError`` when the rotation reads a qubit outside the
    support, as (c, s) would then not factor through it."""
    position = {q: i for i, q in enumerate(support)}
    position[ancilla] = k = len(support)
    basis = np.arange(2**k)
    theta = np.zeros(2**k)
    for g in rotation:
        controls = _positions(g, position)[:-1]
        if isinstance(g, Ry):
            theta += g.angle
        elif isinstance(g, ControlledRy):
            theta += g.angle * ((basis >> (k - 1 - controls[0])) & 1)
        else:  # ConditionalRy: look the angle up by the register's bits
            width = len(controls)
            if controls == tuple(range(k)):  # the whole support, in order
                register = basis
            else:
                register = np.zeros(2**k, dtype=np.int64)
                for i, q in enumerate(controls):
                    register |= ((basis >> (k - 1 - q)) & 1) << (width - 1 - i)
            table = np.zeros(2**width)
            if g.angles:
                xs, angles = zip(*g.angles)
                table[list(xs)] = angles
            theta += table[register]
    return np.cos(theta / 2.0), np.sin(theta / 2.0)


def lower_step(
    circuit: Circuit, state: StateVector | DensityMatrix, noise: NoiseModel | None = None
) -> BoundStep:
    """Lower a step circuit once for ``state``'s type and ``noise`` into
    the operators a :class:`BoundStep` lists.

    The rotation runs from the first gate that touches the ancilla to the
    measurement; each of its gates must be a y-rotation targeting the
    ancilla. Pre_S (and Post_S, unless Post's gates invert Pre's) is the
    gate kernels run on the identity columns with each qubit on its
    position in S; a noiseless statevector step builds no Post_S, but
    runs Post's kernels on diag(c_S) Pre_S, which makes K0 exactly real
    whenever its imaginary part cancels. A density matrix's T_S is
    (Post_S (x) Post_S*) N_S diag(vec W) (Pre_S (x) Pre_S*), with N_S one
    application of the channel on S, and its prob0 row
    v = vec(diag W)^T (Pre_S (x) Pre_S*).
    """
    ancilla = circuit.ancilla
    pre = circuit.pre_measure
    split = next((i for i, g in enumerate(pre) if ancilla in qubits_of(g)), len(pre))
    rotation = pre[split:]
    for g in rotation:
        if not isinstance(g, (Ry, ControlledRy, ConditionalRy)) or qubits_of(g)[-1] != ancilla:
            raise ValueError(
                f"step circuit has {g!r} between its ancilla rotation and the measurement; "
                "only y-rotations targeting the ancilla may sit there"
            )
    support = tuple(sorted({q for g in circuit.gates for q in qubits_of(g)} - {ancilla}))
    c, s = _fold_rotation(rotation, support, ancilla)
    if noise is not None and noise.is_identity:
        noise = None
    if len(support) > FUSED_MAX_SUPPORT:
        position = {q: i for i, q in enumerate(support)}
        pre_g, post_g = (
            tuple(_relabel(g, position) for g in gates) for gates in (pre[:split], circuit.post_measure)
        )
        if isinstance(state, DensityMatrix):  # sandwiches, left out when empty
            pre_g, post_g = ((g, None, None) if g else None for g in (pre_g, post_g))
        return BoundStep(type(state), noise, support, (pre_g, (c, s), post_g))
    pre_s = _on_support(pre[:split], support)
    if isinstance(state, StateVector) and noise is None:
        # K0 = Post_S diag(c_S) Pre_S by Post's kernels on S
        position = {q: i for i, q in enumerate(support)}
        k0 = _product(circuit.post_measure, c[:, None] * pre_s, overwrite=True, axes=position)
        return BoundStep(type(state), None, support, (_as_state_array(k0), None, None))
    if circuit.post_measure == adjoint_sequence(pre[:split]):
        post_s = np.ascontiguousarray(pre_s.conj().T)
    else:
        post_s = _on_support(circuit.post_measure, support)
    eps_d = 0.0 if noise is None else noise.eps_d
    if isinstance(state, DensityMatrix):
        weights = np.outer(c, c) + eps_d * np.outer(s, s)
        if len(support) <= SUPEROP_MAX_SUPPORT:
            # vec(A rho A^dag) = (A (x) conj(A)) vec(rho), vec row-major
            pre_t = np.kron(pre_s, pre_s.conj())
            superop = weights.reshape(-1, 1) * pre_t
            if noise is not None:
                superop = _channel_superop(noise, (1,) * len(support)) @ superop
            superop = np.kron(post_s, post_s.conj()) @ superop
            # prob0 = sum_x W[x, x] (Pre rho Pre^dag)[x, x]: rows of Pre_t
            prob0_row = weights.diagonal() @ pre_t[:: len(c) + 1]
            return BoundStep(type(state), noise, support, (superop, prob0_row))
        # an empty gate list leaves its sandwich out
        pre_op = _phased(pre_s) if pre[:split] else None
        post_op = _phased(post_s) if circuit.post_measure else None
        if len(support) > MASK_STACK_MAX_SUPPORT:
            return BoundStep(type(state), noise, support, (pre_op, weights, post_op))
        # Pre_S's phase_out and Post_S's phase_in move into the stage
        phase_out = phase_in = None
        if pre_op is not None:
            a, pre_in, phase_out = pre_op
            pre_op = (a, pre_in, None)
        if post_op is not None:
            a, phase_in, post_out = post_op
            post_op = (a, None, post_out)
        stage = _mask_stage(weights, noise, phase_out, phase_in)
        return BoundStep(type(state), noise, support, (pre_op, stage, post_op))
    return BoundStep(type(state), noise, support, (pre_s, (c, s), post_s))


def run_step_circuit(
    state: StateVector | DensityMatrix,
    step: BoundStep,
    rng: np.random.Generator | None = None,
) -> MeasureResult:
    """One measured step circuit, lowered by :func:`lower_step` for this
    state's type, on the work register, its ancilla postselected.

    Each state type runs every step down one pipeline (see
    :class:`BoundStep`): Pre on the state gathered in the step's order,
    the outcome rule of :func:`_outcome`, the work-qubit channel (exact on
    S and owed on the other qubits on a density matrix; one sampled
    trajectory on a statevector, which needs ``rng``), then Post.
    """
    if not isinstance(state, step.state_type):
        raise TypeError(f"step lowered for {step.state_type.__name__}, got {type(state).__name__}")
    return state._run_step(step, rng)
