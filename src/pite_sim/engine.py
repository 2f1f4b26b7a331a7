"""State evolution engines: statevector and density matrix.

States hold the n work qubits only. A step circuit's ancilla starts in
|0>, is turned by y-rotations controlled on the work register and is
measured at once, so its whole effect is diagonal on the work register:
with c and s the cos and sin of half its total rotation angle on each
work basis state, outcome 0 keeps C rho C (C = diag(c)), plus
eps_d S rho S (S = diag(s)) when the ancilla is noisy.

Each step circuit is lowered once per run (:func:`lower_step`) onto its
support S, the work qubits its gates touch, into one of five forms, each
a class under :class:`BoundStep`, picked by the state type and |S|:

- :class:`K0Step`, a noiseless statevector step on at most
  ``FUSED_MAX_SUPPORT`` qubits: one fused K0 = Post_S diag(c_S) Pre_S;
- :class:`BranchStep`, every other statevector step: Pre, the product
  scaled by c_S (or by s_S), the sampled work-qubit noise, then Post;
- :class:`SuperopStep`, a density-matrix step on at most
  ``SUPEROP_MAX_SUPPORT`` = ``FUSED_MAX_SUPPORT`` // 2 qubits: one
  4^|S| x 4^|S| superoperator T_S (Pre_S on both sides, the measurement
  as one elementwise weight W on S, the channel on S, then Post_S);
- :class:`MaskSandwichStep`, a wider density-matrix step on at most
  ``MASK_STACK_MAX_SUPPORT`` qubits: the same four stages in turn,
  Pre_S and Post_S as sandwiches, and between them W and the channel
  on S, which keep each entry's X mask (row XOR column on S), as one
  real product batched over S's X-mask blocks;
- :class:`PassSandwichStep`, every wider density-matrix step: W, built
  from (c_S, s_S) as the step runs (:func:`_weights`), scales the rows
  and the channel runs as passes (:func:`_channel`), between Pre_S and
  Post_S up to ``FUSED_MAX_SUPPORT`` qubits and the gate lists of Pre
  and Post beyond.

A per-term K0 (Pre of Hadamard, PhaseS, PhaseSdg, PauliX and CNOT
gates, one controlled-Ry from a pivot qubit onto the ancilla, Post the
adjoint of Pre) is built from no gate kernel: it is a I + b P', with
P' = Pre^dag Z_pivot Pre propagated as i^phase X^x Z^z bit masks by the
stabilizer conjugation rules (:func:`_pauli_k0`), and it is real, and
stored as float64, exactly when that phase is even (the term has an
even number of Y factors), so a real state stays real. Every other
matrix up to ``FUSED_MAX_SUPPORT`` qubits is 2^|S| x 2^|S|, built by
running the gate kernels on the identity columns, each gate's qubits
mapped onto their positions in S (Post_S is the adjoint of Pre_S when
its gates are Pre's inverted; any other K0 is Post's kernels run on
diag(c_S) Pre_S). The kernels keep real and imaginary parts apart (a
complex entry times a real factor, a sum of two such entries) and turn
a phase by an exact quarter turn, so an imaginary part that cancels in
a grouped K0 or a density-matrix operator comes out exactly 0, and an
exactly real array is stored as float64 (``real_if_exact``). A
wider step, whose matrices would grow as 4^|S|, keeps its own Pre and
Post gate lists, which the kernels run in place on the gathered block,
through the support's map from each qubit to its position in S (on a
density matrix on S's row bits, then conjugated on its column bits),
copied first only where it may be the stored state itself; every other
stage is the one a fused step runs.

A superoperator step works on the matrix in site-pair order: each
qubit's row bit, then its column bit, qubit after qubit (the labels
q0, n + q0, q1, n + q1, ...). When S's sites form one contiguous run
there, after 4^p entries and before 4^(n-p-|S|), T_S, held in site-pair
order and permuted into the run's, multiplies the
(4^p, 4^|S|, 4^(n-p-|S|)) view in place of a move; any other matrix is
moved with S's sites first (:func:`_site_run`). In any site-pair order
the diagonal sits at the same positions (:func:`_diagonal_sites`). A
sandwich step works on the matrix gathered with S's row bits first,
then S's column bits, then the rest's: as (4^|S|, rest^2), S's
vectorized block on the leading axis. A sandwich a rho a^dag is a on
S's row bits, one product, and a^dag on its column bits, one product
batched over the rows. Nothing assumes rho = rho^dag.
An operator real but for one phase per column or per row is split into
the real matrix and an elementwise phase factor (:func:`_phased`), which
its sandwich applies as a row scaling, and a real matrix multiplies a
complex one as a real product (:func:`_product`).

The state type selects how the noise channel is applied: a density
matrix takes the exact Kraus channel, a statevector samples one branch
(the ancilla's, then one per work qubit), so that averaging many such
trajectories, weighted by their ancilla-0 probabilities, reproduces the
channel. On a density matrix a step applies the channel on S only and
leaves it owed on every other qubit. That is exact: the channel on a
qubit outside S is trace-preserving and acts on that qubit alone, so it
commutes with the whole step, its weight W included, and leaves the
trace that gives prob0 as it is. The owed applications run, folded into
one channel per qubit, when a later step's support takes in the qubit
(composed into its superoperator, or in the gathered layout, where its
passes are long) or when ``data`` is read. On either state type a step
also moves the state into its own order (S first, the other qubits as
they were stored; a superoperator step leaves a matrix whose sites of S
are one run in site-pair order as it is) and leaves it there; ``data`` restores
canonical order. Each step keeps the move it made from each layout it
met (register size and stored order), so a run works a move out once
per step and layout: a state already stored in the step's order (after
a step on the same support, say) is not moved, a vector of at most
``_INDEX_MAX_QUBITS`` qubits is moved by one ``take`` of a held index,
and anything else by one transpose. A density matrix's energy, trace
and subspace weight read the stored matrix as it is: an observable A of
the state is the adjoint channel N^dag(A) of the stored one, since
Tr(A N(rho)) = Tr(N^dag(A) rho), gathered in the stored order and built
once per owed counts (a subspace projector held for another order is
moved into the new one). On either state type the energy is one
gather over every distinct X mask at once, against the diagonals that
``PauliHamiltonian.x_mask_stack`` stacks (on a density matrix owing a
channel, those of N^dag(H)), and one dot.

Conventions shared with the rest of the package: qubit 0 is the most
significant bit of a basis index; in a circuit the ancilla is the
highest qubit index (least significant bit). Gates are applied in place
through reshaped views of a contiguous buffer, each qubit placed on its
axis by one map (:func:`_apply_gate_flat`); a density matrix gets every
unitary applied from both sides. The dense oracles the tests check this
module against (gate unitaries from the gate definitions, the
closed-form Pauli step) are in ``tests/oracles.py`` and share none of
its kernels.

Every measurement postselects: it keeps outcome 0 and returns prob0 as
a float. One rule (:func:`_postselected`) checks every prob0 before the
state changes: it takes one in [``ANNIHILATION_THRESHOLD``, 1] as it is,
clamps one over 1 by rounding to 1, and raises on one further over 1, on
NaN and below the annihilation threshold. Both state types carry the
weight of their stored state, a vector's squared norm and a matrix's
trace, and keep each branch unnormalized: prob0 is the ratio of the
kept branch's weight to the carried one (:meth:`_State._outcome`), and
the state is divided once, when ``data`` reads it (see :class:`_State`).
A density matrix's kept weight is the trace of a step's output: after
T_S, Post_S included, or on a sandwich after W (and S's channel, on an
X-mask stack) and before Post_S; a statevector's is the squared norm of
its branch after diag(c_S). A
statevector trajectory, whose noisy ancilla can jump, checks the summed
weight of its two branches and then keeps one of them with one draw (see
:meth:`StateVector._measure`). A sampled run's restarts are replayed
from those prob0s by the caller (see ``pite.replay_restarts``).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

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
from .hamiltonian import PauliHamiltonian, real_if_exact

__all__ = [
    "StateVector",
    "DensityMatrix",
    "NoiseModel",
    "EvolutionAnnihilatedError",
    "make_rng",
    "BoundStep",
    "lower_step",
    "run_step_circuit",
]

ANNIHILATION_THRESHOLD = 1e-15
# A state whose carried weight falls below this is divided at once, long
# before its entries could underflow (a chain of measurements with no read
# in between shrinks it by each prob0)
RESCALE_THRESHOLD = 1e-100
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
# channel as one stack of 2^|S| blocks of 2^|S| x 2^|S| (MaskSandwichStep):
# 8^|S| entries, within the 4^FUSED_MAX_SUPPORT every held array keeps to.
# Wider sandwiches run them as passes. Timed alone (2-vCPU Xeon, one BLAS
# thread), on a 6-qubit matrix the stack took 25 us against the passes'
# 75 us at |S| = 4, and 116 us against 101 us at |S| = 6.
MASK_STACK_MAX_SUPPORT = 2 * FUSED_MAX_SUPPORT // 3

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_CLIFFORD_1Q = frozenset((Hadamard, PhaseS, PhaseSdg, PauliX))


class EvolutionAnnihilatedError(RuntimeError):
    """Post-selection hit numerically zero probability; the evolution died."""


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator (Philox) so sampled runs replay exactly."""
    return np.random.Generator(np.random.Philox(seed))


def _pair_views(
    flat: np.ndarray, target: int, control: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The (bit 0, bit 1) views of qubit axis ``target`` of a contiguous
    buffer (axis 0 its most significant bit; any extent after the last
    axis named, matrix columns say, stays one trailing axis), restricted
    to ``control``'s bit 1 when given. One axis per qubit named keeps the
    views' strides regular, so numpy's elementwise loops run long."""
    if control is None:
        view = flat.reshape(1 << target, 2, -1)
        return view[:, 0], view[:, 1]
    low, high = sorted((control, target))
    view = flat.reshape(1 << low, 2, 1 << (high - low - 1), 2, -1)
    if control < target:
        return view[:, 1, :, 0], view[:, 1, :, 1]
    return view[:, 0, :, 1], view[:, 1, :, 1]


def _hadamard_pair(v0: np.ndarray, v1: np.ndarray) -> None:
    """In place: (v0, v1) <- (h v0 + h v1, h v0 - h v1), h = 1/sqrt(2),
    in four passes: the sums of a 2x2 product with the Hadamard matrix,
    as (-h) v1 is -(h v1) exactly."""
    a = v0 * _SQRT1_2
    v1 *= _SQRT1_2
    np.add(a, v1, out=v0)
    np.subtract(a, v1, out=v1)


def _swap_pair(v0: np.ndarray, v1: np.ndarray) -> None:
    tmp = v0.copy()
    v0[...] = v1
    v1[...] = tmp


def _apply_dense(flat: np.ndarray, m: np.ndarray, axes: tuple[int, ...]) -> None:
    """In-place k-qubit unitary on the given axes (first axis = MSB)."""
    k, last = len(axes), max(axes) + 1
    view = flat.reshape((2,) * last + (-1,))
    # the gate's axes first, in its order, the others after them as they were
    moved = view.transpose((*axes, *(a for a in range(last + 1) if a not in axes)))
    work = np.ascontiguousarray(moved).reshape(2**k, -1)
    moved[...] = (m @ work).reshape(moved.shape)


def _product(
    a: np.ndarray | tuple[Gate, ...], x: np.ndarray, overwrite: bool = False, axes=None
) -> np.ndarray:
    """a @ x, as a new array, for a 2-D ``x`` (2^k, rest) with contiguous
    rows, or a stack of them, each multiplied by ``a``. A real ``a`` takes
    a complex ``x`` as one real product over its interleaved real and
    imaginary parts, which never meet. A gate list ``a`` on a 2-D x's k
    leading qubits needs ``axes``, which puts its qubit q on axis
    ``axes[q]`` among them; it runs through the kernels on a copy of
    ``x``, upcast to complex when one of its gates is; with ``overwrite``
    (the caller owns ``x`` and reads it no more) it runs in ``x`` itself
    when no upcast is due."""
    if isinstance(a, tuple):
        upcast = np.iscomplexobj(x) or any(map(_gate_needs_complex, a))
        out = x.astype(np.complex128 if upcast else np.float64, order="C", copy=not overwrite)
        for g in a:
            _apply_gate_flat(out, g, axes, False)
        return out
    if x.dtype.kind == "c" and a.dtype.kind == "f":
        return (a @ x.view(np.float64)).view(np.complex128)
    return a @ x


def _sandwich(op: tuple, rho: np.ndarray, own: bool, axes=None) -> np.ndarray:
    """m rho m^dag for op = (a, phase_in, phase_out) of m (see
    :func:`_phased`), on rho gathered as (4^k, rest^2) with S's row bits,
    then its column bits, leading: a on the row bits as one product, then
    a^dag on the column bits as conj(a) on each row's (2^k, rest^2) block,
    one product batched over the rows. A gate list ``a`` runs its kernels
    on the row bits, qubit q's on axis ``axes[q]``, then conjugated on the
    column bits, k axes further on, in ``rho`` itself when the caller
    ``own``s it (else nothing writes into ``rho``, which may be the stored
    state)."""
    a, phase_in, phase_out = op
    rows = math.isqrt(rho.shape[0])
    if phase_in is not None:
        rho = rho * phase_in.reshape(-1, 1)
    if isinstance(a, tuple):
        rho = _product(a, rho.reshape(rows, -1), own, axes)
        k = rows.bit_length() - 1
        columns = {q: i + k for q, i in axes.items()}
        for g in a:
            _apply_gate_flat(rho, g, columns, True)
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


def _apply_gate_flat(flat: np.ndarray, gate: Gate, axes, conjugate: bool) -> None:
    """Apply one gate in place to a contiguous buffer whose leading bits
    are qubit axes (axis 0 the most significant).

    ``axes[q]`` is the axis of the gate's qubit q (a density matrix's
    column side passes range(n, 2n), a step's support its qubits'
    positions in it); ``conjugate`` applies the complex conjugate gate,
    which is what right-multiplication by the adjoint amounts to. The
    ancilla's y-rotations have no kernel: lowering folds them into the
    step's diagonal factors (:func:`_fold_rotation`).
    """
    if isinstance(gate, Hadamard):
        _hadamard_pair(*_pair_views(flat, axes[gate.qubit]))
    elif isinstance(gate, (PhaseS, PhaseSdg)):
        forward = isinstance(gate, PhaseS) != conjugate
        _, v1 = _pair_views(flat, axes[gate.qubit])
        v1 *= 1j if forward else -1j
    elif isinstance(gate, PauliX):
        _swap_pair(*_pair_views(flat, axes[gate.qubit]))
    elif isinstance(gate, CNOT):
        _swap_pair(*_pair_views(flat, axes[gate.target], axes[gate.control]))
    elif isinstance(gate, DenseBlock):
        m = gate.matrix.conj() if conjugate else gate.matrix
        _apply_dense(flat, m, tuple(axes[q] for q in gate.qubits))
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


def _postselected(prob0: float) -> float:
    """The ancilla measurement rule, shared by every step path: postselect
    outcome 0 with probability ``prob0``, which comes back as it is when
    it lies in [``ANNIHILATION_THRESHOLD``, 1]. A prob0 over 1 by at most
    1e-9 is rounding and comes back as 1.0; one further over 1, or NaN,
    means a step that is not a measurement and raises ``ValueError``; one
    below the threshold raises :class:`EvolutionAnnihilatedError`."""
    if ANNIHILATION_THRESHOLD <= prob0 <= 1.0:
        return prob0
    if not prob0 <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError(f"ancilla-0 probability {prob0!r} exceeds 1 or is NaN")
    if prob0 < ANNIHILATION_THRESHOLD:
        raise EvolutionAnnihilatedError(
            f"ancilla-0 probability {prob0:.3e} below {ANNIHILATION_THRESHOLD}"
        )
    return 1.0


def _squared_norm(x: np.ndarray) -> float:
    """|x|^2 of a contiguous array: one dot on float64, ``vdot`` on complex."""
    flat = x.ravel()
    return float(flat.dot(flat)) if flat.dtype.kind == "f" else float(np.vdot(flat, flat).real)


def _weights(c: np.ndarray, s: np.ndarray, eps_d: float) -> np.ndarray:
    """W = c c^T + eps_d s s^T: outcome 0 of an ancilla with factors
    (c, s) keeps entry (x, y) of a density matrix times W[x, y], both of
    its branches, C rho C and the E2 jump's eps_d S rho S, summed."""
    return np.outer(c, c) + eps_d * np.outer(s, s)


class _State:
    """Plumbing shared by the two state types: dtype promotion, the energy,
    the stored qubit order and the carried weight.

    The stored state is the state times a scale: ``_weight`` is its
    weight, the squared norm of a vector and the trace of a matrix (1 for
    a state set through ``data``). A measurement keeps its branch as it
    comes, unnormalized, and its prob0 is the ratio of the branch's weight
    to ``_weight``, which then becomes the branch's (:meth:`_outcome`).
    ``data`` divides once, when the state is read (``_normalize``), and so
    does a step whose weight has fallen below ``RESCALE_THRESHOLD``,
    before it can underflow.

    The state is kept in ``_stored`` with its bits, most significant
    first, carrying the labels ``_order``: q for qubit q, and on a density
    matrix n + q for its column bit (None is canonical), in any order: a
    superoperator step's site-pair order (q0, n + q0, q1, n + q1, ...)
    and a sandwich step's gathered one (S's rows, S's columns, the other
    rows, their columns) are two of them. A step moves it into the order
    it works in (:meth:`_gather`, or a superoperator step's
    :meth:`DensityMatrix._gather_sites`, by the move the step keeps for
    the stored layout) and leaves it there;
    ``data``, and so every gate (and a statevector's energy), first
    restores the canonical order and divides by the weight. A copy keeps
    the stored order, and a density matrix reads its energy, trace and
    subspace weight in it. A subclass says how many ``_sides`` carry
    labels (1 on a vector, 2 on a matrix) and supplies ``_normalize``,
    ``_expectation`` and ``_run_step``, which runs call, and
    ``measure_ancilla``, a whole-register measurement on ``data`` that no
    step calls; ``apply_gate`` runs a gate on ``data`` on every side.
    Tests and the benchmark's spans use those two.
    """

    n_qubits: int
    _sides: int

    @property
    def data(self) -> np.ndarray:
        """The state in canonical order and divided by its weight (on a
        density matrix, all that is owed applied)."""
        self._flush()
        return self._stored

    @data.setter
    def data(self, entries: np.ndarray) -> None:
        self._stored = np.ascontiguousarray(entries)
        self._order: tuple[int, ...] | None = None
        self._weight = 1.0

    def _flush(self) -> None:
        """Put the stored state back in canonical order, then divide it by
        its weight."""
        if self._order is not None:
            n = self.n_qubits
            shape, axes = _transposition(self._order, tuple(range(self._sides * n)))
            moved = np.ascontiguousarray(self._stored.reshape(shape).transpose(axes))
            self._stored, self._order = moved.reshape((2**n,) * self._sides), None
        self._normalize()

    def _keep(self, branch: np.ndarray, weight: float, order: tuple | None) -> None:
        """Store a step's kept ``branch``, in ``order``, whose weight is
        ``weight``."""
        self._stored, self._order, self._weight = branch, order, weight
        if weight < RESCALE_THRESHOLD:
            self._normalize()

    def _outcome(self, branch: np.ndarray, weight: float, order: tuple | None) -> float:
        """The outcome rule on a kept ``branch`` of weight ``weight``:
        prob0 is ``weight`` over the carried weight, checked by
        :func:`_postselected` before anything is stored, then the branch
        is kept (:meth:`_keep`). Returns prob0."""
        prob0 = _postselected(weight / self._weight)
        self._keep(branch, weight, order)
        return prob0

    def _gather(self, step: BoundStep) -> tuple[np.ndarray, tuple]:
        """The state in the order ``step`` works in, as (2^k, rest) on a
        vector and (4^k, rest^2) on a matrix (k = |S|), and that order.
        The move comes from the step's own cache, ``step.moves``, keyed by
        the layout it meets (register size and stored order); only a
        layout met for the first time is worked out (:func:`_step_order`).
        A state stored in the step's order already comes back as a
        reshaped view, a small vector as one ``take`` of a held index, and
        anything else as a contiguous transposed copy."""
        try:
            order, move = step.moves[self.n_qubits, self._order]
        except KeyError:
            order, move = step.moves[self.n_qubits, self._order] = _step_order(
                self.n_qubits, self._sides, self._order, step.support
            )
        if type(move) is np.ndarray:
            return self._stored.take(move), order
        rows = 1 << (len(step.support) * self._sides)
        if move is None:
            return self._stored.reshape(rows, -1), order
        shape, axes = move
        moved = np.ascontiguousarray(self._stored.reshape(shape).transpose(axes))
        return moved.reshape(rows, -1), order

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

    def apply_gate(self, gate: Gate) -> None:
        """``gate`` on ``data``: on its rows, then, on a density matrix,
        conjugated on its columns, qubit q's at axis n + q."""
        if _gate_needs_complex(gate):
            self._ensure_complex()
        n = self.n_qubits
        for side in range(self._sides):
            _apply_gate_flat(self.data, gate, range(side * n, side * n + n), side == 1)

    def expectation(self, h: PauliHamiltonian) -> float:
        """Energy of the state under ``h``, identity offset included."""
        if h.n_qubits != self.n_qubits:
            raise ValueError("Hamiltonian dimension does not match the state")
        return self._expectation(h)


class StateVector(_State):
    """Statevector over ``n_qubits``, read unit-norm: its carried weight
    is the squared norm of the stored vector, which ``data`` divides by
    its square root (see :class:`_State`).

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
            self.data = real_if_exact(amplitudes)

    def _normalize(self) -> None:
        if self._weight != 1.0:
            self._stored /= math.sqrt(self._weight)
            self._weight = 1.0

    def _measure(
        self, out: np.ndarray, out1: np.ndarray | None, eps_d: float, rng, order: tuple | None
    ) -> float:
        """The measurement stage, on the ancilla-0 branch ``out`` and, when
        the ancilla can jump, its ancilla-1 branch ``out1``, which reaches
        outcome 0 with weight ``eps_d``. Without a jump branch prob0 is
        :meth:`_outcome`'s. With one, which needs ``rng``, each weight is
        its branch's squared norm over ``_weight``, prob0 is their sum,
        and outcome 0 takes one draw r and keeps the jump branch, as it
        is, when r prob0 >= the first weight."""
        if out1 is not None and rng is None:
            raise ValueError("a sampled noise branch needs an rng")
        kept = _squared_norm(out)
        if out1 is None:
            return self._outcome(out, kept, order)
        kept1, weight = _squared_norm(out1), kept / self._weight
        # two quotients: (kept + eps_d kept1) / weight rounds differently
        prob0 = _postselected(weight + eps_d * kept1 / self._weight)
        if rng.random() * prob0 >= weight:
            self._keep(out1, kept1, order)
        else:
            self._keep(out, kept, order)
        return prob0

    def measure_ancilla(
        self,
        c: np.ndarray,
        s: np.ndarray,
        eps_d: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Postselect an ancilla given as its per-basis-state factors, the
        measurement stage of a step on the whole register.

        ``c`` and ``s`` are the cos and sin of half the ancilla's rotation
        angle on each work basis state, and ``eps_d`` weights the branch
        that the ancilla's E2 jump brings to outcome 0. So prob0 is
        sum_x (c_x^2 + eps_d s_x^2) w_x, with w the basis-state weights.
        Outcome 0 keeps (C rho C + eps_d S rho S) / prob0 (a statevector
        samples one of the two branches, which needs ``rng``). Returns
        prob0.
        """
        psi = self.data
        return self._measure(c * psi, s * psi if eps_d > 0.0 else None, eps_d, rng, None)

    def _run_step(self, step: BoundStep, rng) -> float:
        x, order = self._gather(step)
        if type(step) is K0Step:  # one product and one dot
            k0 = step.k0
            # dot, not @: numpy dispatches it in about half the time here
            if k0.dtype.kind == "f" and x.dtype.kind == "f":  # every built-in model's step
                out = k0.dot(x)
                flat = out.ravel()  # a view: dot's output is contiguous
                kept = float(flat.dot(flat))
            else:  # complex out: |z|^2 needs vdot (a real dot sums z^2)
                if k0.dtype.kind == "f":  # see _product
                    out = k0.dot(x.view(np.float64)).view(np.complex128)
                else:
                    out = k0.dot(x)
                kept = _squared_norm(out)
            prob0 = _postselected(kept / self._weight)
            self._stored, self._order, self._weight = out, order, kept  # _outcome, inlined
            if kept < RESCALE_THRESHOLD:
                self._normalize()
            return prob0
        noise = step.noise  # a BranchStep
        if noise is not None and rng is None:
            raise ValueError("statevector noise is sampled and needs an rng")
        eps_d = 0.0 if noise is None else noise.eps_d
        axes = {q: i for i, q in enumerate(step.support)}  # for a gate list
        x = _product(step.pre, x, not np.may_share_memory(x, self._stored), axes)
        out, out1 = step.c[:, None] * x, step.s[:, None] * x if eps_d > 0.0 else None
        prob0 = self._measure(out, out1, eps_d, rng, order)
        if noise is not None:  # a trajectory: the sampled work-qubit noise, then Post
            self.sample_kraus(noise, rng)
        # Post on the kept branch, a buffer of the step's own
        self._stored = _product(step.post, self._stored, True, axes)
        return prob0

    def _expectation(self, h: PauliHamiltonian) -> float:
        # one gather for all distinct X masks, see PauliHamiltonian.x_mask_stack
        psi = self.data
        _, index, stack = h.x_mask_stack
        return h.identity_offset + float(np.vdot(psi[index], stack * psi).real)

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
        norm2 = self._weight
        for q in range(self.n_qubits):
            v0, v1 = _pair_views(flat, order.index(q))
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
    complex gate arrives. Its carried weight is the trace of the stored
    matrix, which ``data`` divides by, and which ``trace``, the energy
    and ``subspace_weight`` divide their reads by (see :class:`_State`).

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
            self.data = real_if_exact(entries)

    @_State.data.setter
    def data(self, entries: np.ndarray) -> None:
        _State.data.fset(self, entries)
        self._owed = [0] * self.n_qubits

    def copy(self) -> DensityMatrix:
        twin = super().copy()
        twin._owed, twin._reads = list(self._owed), dict(self._reads)
        return twin

    def _flush(self) -> None:
        """Put the matrix back in canonical order and divide it by its
        weight, then apply what is owed."""
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

    def _normalize(self) -> None:
        if self._weight != 1.0:
            self._stored /= self._weight
            self._weight = 1.0

    def trace(self) -> float:
        """tr rho, the stored diagonal's sum over the carried weight: the
        owed channel keeps the trace, and a stored order moves the
        diagonal entries only."""
        rows, columns = _flat_positions(self.n_qubits, self._order)
        return float(self._stored.reshape(-1)[rows + columns].real.sum()) / self._weight

    def subspace_weight(self, basis: np.ndarray) -> float:
        """Tr(B B^dag rho) for the orthonormal columns B of ``basis``,
        without a flush: Tr(N^dag(B B^dag) rho~) over the carried weight,
        with rho~ the stored matrix and N what it owes, as one ``vdot`` of
        the flat buffers (:func:`_adjoint_projector`). A matrix that owes
        nothing in canonical order reads B^dag rho~ B instead and builds
        no projector."""
        owed = tuple(self._owed)
        if self._order is None and not any(owed):
            amps = self._stored @ basis
            total = sum(np.real(np.vdot(basis[:, d], amps[:, d])) for d in range(basis.shape[1]))
            return float(total) / self._weight
        def build(held: tuple | None) -> np.ndarray:
            if held is not None and held[0] is basis and held[1][:2] == (self._noise, owed):
                # the projector held, in another order: moved, not built again
                return _laid_out(held[2], held[1][2], self._order)
            return _adjoint_projector(basis, self._noise, owed, self._order)

        projector = self._adjoint_read("projector", basis, build)
        return float(np.vdot(projector, self._stored.reshape(-1)).real) / self._weight

    def _adjoint_read(self, kind: str, source, build):
        """``build(held)``, an adjoint observable of ``source`` for the owed
        counts (and, for the projector, laid out in the stored order), kept
        as the one entry of its ``kind`` until a read for another source,
        model, count or projector order replaces it; ``held`` is the entry
        it replaces, (source, key, observable), or None. The entry holds
        ``source``, which is compared by identity. The energy's diagonals
        are read in any order (see ``_expectation``), so no order keys
        them."""
        order = self._order if kind == "projector" else None
        key = (self._noise, tuple(self._owed), order)
        entry = self._reads.get(kind)
        if entry is None or entry[0] is not source or entry[1] != key:
            entry = self._reads[kind] = (source, key, build(entry))
        return entry[2]

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
    ) -> float:
        """:meth:`StateVector.measure_ancilla` on a density matrix, which
        keeps both branches and so needs no ``rng``: on ``data``, with
        W = c c^T + eps_d s s^T (:func:`_weights`), rho becomes W * rho
        elementwise, whose trace sum_x W_xx rho_xx is prob0
        (:meth:`_outcome`)."""
        weights, rho = _weights(c, s, eps_d), self.data
        kept = float(np.dot(weights.diagonal(), rho.diagonal()).real)
        return self._outcome(rho * weights, kept, None)

    def _gather_sites(self, step: SuperopStep) -> tuple[np.ndarray, _SiteRun]:
        """The matrix in the site-pair order ``step`` works in, flat, and
        what the step keeps for the stored layout (:func:`_site_run`), from
        its ``moves`` as :meth:`_State._gather` takes a move: the stored
        buffer itself when the step's sites form one run in it, else a
        contiguous transposed copy."""
        try:
            run = step.moves[self.n_qubits, self._order]
        except KeyError:
            run = step.moves[self.n_qubits, self._order] = _site_run(
                self.n_qubits, self._order, step
            )
        if run.move is None:
            return self._stored.reshape(-1), run
        shape, axes = run.move
        return np.ascontiguousarray(self._stored.reshape(shape).transpose(axes)).reshape(-1), run

    def _run_step(self, step: BoundStep, rng) -> float:
        # The kept weight is the trace of the step's output: after T_S, or
        # after W on a sandwich, before Post_S. The channel on a qubit
        # outside S commutes with the whole step, so it is only counted as
        # owed.
        noise = step.noise
        if noise is not None:
            self._adopt(noise)
        if type(step) is SuperopStep:
            prob0 = self._superop_step(step)
        else:
            prob0 = self._sandwich_step(step)
        support, grows = step.support, int(noise is not None)
        self._owed = [0 if q in support else m + grows for q, m in enumerate(self._owed)]
        return prob0

    def _superop_step(self, step: SuperopStep) -> float:
        # The step runs on, and stores, rho in site-pair order, S's sites
        # one run in it: the (before, 4^k, after) view, S's vectorized
        # block on the middle axis. What S owes composes into T_S.
        rho, run = self._gather_sites(step)
        owed = tuple(self._owed[q] for q in run.sites)
        split = rho.dtype.kind == "c" and run.t_s.dtype.kind == "f"
        try:
            op, shape, right = run.ops[owed, split]
        except KeyError:
            op, shape, right = run.ops[owed, split] = run.operators(self._noise, owed, split)
        # the moved copy is the state: the stored matrix goes before the product
        self._stored, self._order = rho, run.order
        x = (rho.view(np.float64) if split else rho).reshape(shape)
        if right:
            out = np.matmul(x, op)
        elif x.ndim == 3:
            out = np.matmul(op, x)
        else:  # T_S on each (4^k, columns) block, each written to its place in out
            out = np.empty(shape, np.result_type(op, x))
            np.matmul(op, x.transpose(0, 2, 1, 3), out=out.transpose(0, 2, 1, 3))
        out = (out.view(np.complex128) if split else out).reshape(-1)
        # in any site-pair order the diagonal sits at the same positions
        kept = float(out.take(_diagonal_sites(self.n_qubits)).sum().real)
        return self._outcome(out, kept, run.order)

    def _sandwich_step(self, step: MaskSandwichStep | PassSandwichStep) -> float:
        # The step runs on, and stores, rho gathered with S's row bits, then
        # S's column bits, then the rest's row bits and their column bits
        # in one order: as (4^k, rest^2), S's vectorized block on the
        # leading axis. Traces do not change under the move.
        support, noise = step.support, step.noise
        k = len(support)
        rho, order = self._gather(step)
        owed = tuple(self._owed[q] for q in support)
        view = np.may_share_memory(rho, self._stored)
        axes = {q: i for i, q in enumerate(support)}  # for a gate list
        if any(owed):  # before Pre_S, where its passes run long
            _channel(rho, self._noise, owed, columns=k)
            if view:  # the state itself took it
                for q in support:
                    self._owed[q] = 0
        if step.pre is not None:
            rho = _sandwich(step.pre, rho, not view, axes)
        if type(step) is MaskSandwichStep:  # W and S's own channel
            rho = _by_mask(step.stack, rho)
        else:
            eps_d = 0.0 if noise is None else noise.eps_d
            rho = rho * _weights(step.c, step.s, eps_d).reshape(-1, 1)
        rest = math.isqrt(rho.shape[1])
        # the trace: S's diagonal rows, each on the rest's diagonal
        prob0 = self._outcome(rho, float(rho[:: 2**k + 1, :: rest + 1].sum().real), order)
        if type(step) is PassSandwichStep and noise is not None:  # S's own channel
            _channel(self._stored, noise, (1,) * k, columns=k)
        if step.post is not None:
            self._stored = _sandwich(step.post, self._stored, True, axes)
        return prob0

    def _expectation(self, h: PauliHamiltonian) -> float:
        # Tr(H rho) = sum_x sum_b d_x[b] rho[b, b ^ x], one gather over
        # every distinct X mask (see PauliHamiltonian.x_mask_stack), read
        # without a flush as Tr(N^dag(H) rho~): the diagonals of N^dag(H)
        # (see _adjoint_diagonals) against the stored matrix, whose entry
        # (b, c) sits at rows[b] + columns[c], over the carried weight. As
        # columns is linear over XOR, columns[b ^ x] = columns[b] ^ columns[x].
        masks, _, stack = h.x_mask_stack
        owed = tuple(self._owed)
        if any(owed):
            stack = self._adjoint_read(
                "diagonals", h, lambda held: _adjoint_diagonals(h, self._noise, owed)
            )
        rows, columns = _flat_positions(self.n_qubits, self._order)
        entries = self._stored.reshape(-1)[rows + (columns ^ columns[masks][:, None])]
        total = h.identity_offset * self.trace()  # N^dag(I) = I
        return total + float(np.dot(stack.reshape(-1), entries.reshape(-1)).real) / self._weight


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
    bits lead (a :class:`PassSandwichStep` applies it there to rows
    already scaled by W). With ``adjoint``,
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
) -> np.ndarray:
    """The stack of ``h.x_mask_stack`` for N^dag(H), N ``model``'s channel
    applied counts[q] times to qubit q, in the same row order; read-only.
    d_x[b] is entry (b ^ x, b) of H, so on a qubit q in the X mask each
    of its entries is off the diagonal and takes delta^m, and elsewhere
    b's bit q is both the row and the column bit, where the adjoint
    channel of :func:`_channel` sets d_x[b_q = 1] to
    keep^m d_x[b_q = 1] + (1 - keep^m) d_x[b_q = 0], with the same folded
    values (:func:`_channel_factors`)."""
    n = h.n_qubits
    masks, _, stack = h.x_mask_stack
    stack = stack.copy()
    for x_mask, d in zip(masks.tolist(), stack):
        for q, m in enumerate(counts):
            if m:
                (jump,), factor = _channel_factors(model, (m,))
                if (x_mask >> (n - 1 - q)) & 1:
                    d *= factor[0, 1]
                else:
                    half = d.reshape(2**q, 2, -1)
                    half[:, 1] *= factor[1, 1]
                    half[:, 1] += jump * half[:, 0]
    stack.setflags(write=False)
    return stack


def _adjoint_projector(
    basis: np.ndarray, model: NoiseModel, counts: tuple[int, ...], order: tuple[int, ...] | None
) -> np.ndarray:
    """N^dag(B B^dag) for the columns B of ``basis``, N ``model``'s
    channel applied counts[q] times to qubit q (:func:`_channel` with
    ``adjoint``), flat in the layout of a matrix stored in ``order``
    (labels as in :class:`_State`), so that its ``vdot`` with that matrix
    is the expectation; read-only. N^dag(B B^dag) is Hermitian, so the
    ``vdot``'s conjugate transposes it back."""
    projector = basis @ basis.conj().T
    if any(counts):
        _channel(projector, model, counts, adjoint=True)
    return _laid_out(projector, None, order)


def _laid_out(entries: np.ndarray, order: tuple | None, target: tuple | None) -> np.ndarray:
    """The 4^n ``entries`` of a matrix whose bits carry the labels
    ``order`` (as in :class:`_State`, None for canonical), moved into
    ``target``'s, flat and read-only."""
    canonical = tuple(range(entries.size.bit_length() - 1))
    shape, axes = _transposition(order or canonical, target or canonical)
    moved = np.ascontiguousarray(entries.reshape(shape).transpose(axes)).reshape(-1)
    moved.setflags(write=False)
    return moved


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
    k = len(counts) qubits, acting on vec(rho) in site-pair order (each
    qubit's row bit, then its column bit: r0 c0 r1 c1 ...), as a
    :class:`SuperopStep` holds its matrices: ``_channel`` on the 4^k
    identity columns vec(E_ab) in row-major order (row bits, then column
    bits), then taken into site-pair order (:func:`_site_pairs`)."""
    k = len(counts)
    superop = np.eye(4**k)
    _channel(superop, model, counts, columns=k)
    pairs = _site_pairs(k)
    superop = superop[np.ix_(pairs, pairs)]
    superop.setflags(write=False)
    return superop


def _site_pairs(k: int) -> np.ndarray:
    """For each site-pair index of a k-qubit block (r0 c0 r1 c1 ...), its
    index in row-major vec order (r0 r1 ... c0 c1 ...)."""
    vec = np.arange(4**k).reshape((2,) * (2 * k))
    return vec.transpose([a for q in range(k) for a in (q, k + q)]).reshape(-1)


def _pair_product(a: np.ndarray) -> np.ndarray:
    """a (x) conj(a), the matrix of rho -> a rho a^dag on vec(rho), for a
    2^k x 2^k ``a``, indexed in site-pair order on both sides: one outer
    product, its bits moved into site pairs."""
    k = a.shape[0].bit_length() - 1
    # axes: a's row bits, a's column bits, then conj(a)'s row and column bits
    outer = np.multiply.outer(a, a.conj()).reshape((2,) * (4 * k))
    axes = [axis for q in range(k) for axis in (q, 2 * k + q)]
    axes += [axis for q in range(k) for axis in (k + q, 3 * k + q)]
    return outer.transpose(axes).reshape(4**k, 4**k)


@lru_cache(maxsize=16)
def _diagonal_sites(m: int) -> np.ndarray:
    """The read-only 2^m indices, of the 4^m of m sites in site-pair
    order, at which every site is on its diagonal (sub-index 0 or 3, row
    bit = column bit), ascending: where a matrix stored in site-pair
    order, its sites in any order, keeps its diagonal."""
    index = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        index = (4 * index[:, None] + np.array([0, 3])).reshape(-1)
    index.setflags(write=False)
    return index


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


def _mask_stage(weights: np.ndarray, noise: NoiseModel | None) -> np.ndarray:
    """The read-only ``stack`` of a :class:`MaskSandwichStep` of
    W = ``weights`` on k qubits, then one application of ``noise``'s
    channel on the k qubits (none for None)."""
    size = weights.shape[0]
    k = size.bit_length() - 1
    order, _ = _mask_order(k)
    if noise is None:
        jumps, factor = (0.0,) * k, np.ones((size, size))
    else:
        jumps, factor = _channel_factors(noise, (1,) * k)
    jump_z = np.ones((1, 1, 1))  # Z_x[r out, r in], a Kronecker product over x, r out and r in
    for jump in jumps:  # qubit 0 first, the most significant bit of x and r
        pair = np.array([[[1.0, jump], [0.0, 1.0]], np.eye(2)])  # [x_q, r_q out, r_q in]
        width = 2 * len(jump_z)
        jump_z = np.einsum("xab,ycd->xyacbd", jump_z, pair).reshape(width, width, width)
    f_x, w_x = (a.reshape(-1)[order].reshape(size, size) for a in (factor, weights))
    stack = f_x[:, :, None] * jump_z * w_x[:, None, :]
    stack.setflags(write=False)
    return stack


def _by_mask(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A :class:`MaskSandwichStep`'s ``stack`` on rho gathered as
    (4^k, rest^2): one take into X-mask order, one product batched over
    the masks (a real stack takes a complex rho as a real product, see
    :func:`_product`) and one take back, as a new array."""
    size = stack.shape[0]
    order, inverse = _mask_order(size.bit_length() - 1)
    out = _product(stack, rho.take(order, axis=0).reshape(size, size, -1))
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


# Largest statevector (in qubits) whose steps move it by a held index: at
# most 8 KB per step and layout it meets. Per noiseless pass (one BLAS
# thread, 2-vCPU Xeon), the index ran Ising n=9 and n=10 in 8-15 % less
# time than the transposed copy, and 300 random terms of weight 1-4 on 10
# qubits in 12 % less while holding 2.3 MB. At 12 qubits it ran Ising
# 12 % slower, and the 300 terms 5 % faster while holding 9.2 MB.
_INDEX_MAX_QUBITS = 10


def _step_order(n: int, sides: int, order: tuple | None, support: tuple[int, ...]) -> tuple:
    """The order a statevector step or a sandwich step on ``support``
    works in, from a state stored in ``order`` (labels as in
    :class:`_State`, in any order, on ``sides`` 1 or 2), and the move
    into it (a superoperator step takes its own, see :func:`_site_run`).
    S's bits come first, then the other qubits' as stored now. On a
    matrix these are row bits: S's column bits come right after S's row
    bits, so that S's block is vectorized on the leading axis, and the
    other qubits' column bits come last, in their rows' order, which the
    trace read on the rest's diagonal needs. Leaving the other qubits as they are, not
    canonical, keeps them in long runs that the move copies whole.

    The move is None when the state is stored in that order already. On
    a vector of at most ``_INDEX_MAX_QUBITS`` qubits it is a read-only
    ``intp`` index of shape (2^|S|, rest) for one ``take``, which moved
    LiH's 64 entries in 0.6 us against 1.0 us for the transposed copy
    (timeit, one BLAS thread, 2-vCPU Xeon). Otherwise it is the
    transposition (shape, axes) for that copy. A matrix keeps the copy:
    alone, a held index moved a 6-qubit complex matrix in 4.2 us against
    12-13 us, but noisy LiH's steps meet 37 layouts, and a prototype that
    held their indices took 1.2 MB more memory and ran no faster. Called
    once per step and layout: :meth:`_State._gather` keeps what it
    returns in the step's ``moves``.
    """
    current = tuple(range(sides * n)) if order is None else order
    rest = tuple(q for q in current if q < n and q not in support)
    target = support + rest
    if sides == 2:
        target = support + tuple(n + q for q in support) + rest + tuple(n + q for q in rest)
    if target == current:
        return target, None
    shape, axes = _transposition(current, target)
    if sides == 1 and n <= _INDEX_MAX_QUBITS:
        index = np.arange(1 << n, dtype=np.intp).reshape(shape).transpose(axes)
        index = np.ascontiguousarray(index).reshape(1 << len(support), -1)
        index.flags.writeable = False
        return target, index
    return target, (shape, axes)


# How a superoperator step multiplies the (before, 4^k, b) view of a
# matrix in site-pair order, b the entries after S's sites (doubled on a
# complex matrix that a real T_S takes as its real and imaginary parts).
# Up to _RIGHT_PRODUCT_MAX = 4^k b, or at b = 1, it multiplies the
# (before, 4^k b) view from the right by (T_S (x) I_b)^T; above it T_S
# multiplies each of the before blocks. Timed on 8-qubit real and 6-qubit
# complex matrices (2-vCPU Xeon, medians of 25 rounds, one and two BLAS
# threads), at 4^k b = 16 the right product took 32-41 us against
# 148-157 us for the blocks, at 32 9 us against 12 us, and at 64 from as
# fast to 2.5x slower. Either is cut into products of at most _GEMM_MAX
# multiply-adds: (16 x 16) by (16 x 4096), the product after a two-site
# move on 8 qubits, took 154-181 us as one call on two BLAS threads
# against 47-58 us in two, and 50-60 us either way on one; at 2^19 and
# below one call ran as fast as smaller ones.
_RIGHT_PRODUCT_MAX = 32
_GEMM_MAX = 2**19


@dataclass(eq=False, slots=True)
class _SiteRun:
    """What a :class:`SuperopStep` keeps for one layout it meets (see
    :func:`_site_run`): the site-pair ``order`` it works in and stores,
    the ``move`` into it (a transposition, or None when the matrix is
    stored so already), the step's ``sites`` in the order that stores
    them, a run of sites after ``before`` = 4^p entries and before
    ``after`` = 4^(n-p-k), and ``t_s`` permuted into that order. ``ops``
    keeps, per owed counts on the sites and real-product split, what
    :meth:`operators` builds."""

    order: tuple[int, ...]
    move: tuple | None
    sites: tuple[int, ...]
    before: int
    after: int
    t_s: np.ndarray
    ops: dict = field(default_factory=dict)

    def operators(self, model: NoiseModel | None, owed: tuple[int, ...], split: bool) -> tuple:
        """The product's operator and the shape of the view it
        multiplies, for a matrix owing ``owed`` applications of ``model``
        on the sites: T_S composed with the owed channel, and, with
        ``split``, for a complex matrix seen as float64 (a real
        T_S on its interleaved real and imaginary parts, see
        :func:`_product`). The operator is (T_S (x) I_b)^T on a
        (products, rows, 4^k b) view, to multiply from the right (the
        last item, ``right``, is then True), or T_S on a (before, 4^k, b)
        view or, cut, on a (before, 4^k, cuts, columns) one, each
        (4^k, columns) block multiplied in turn (see
        ``_RIGHT_PRODUCT_MAX``)."""
        t_s = self.t_s
        if any(owed):
            t_s = t_s @ _channel_superop(model, owed)
        size, b = len(t_s), self.after * (2 if split else 1)
        if b == 1 or size * b <= _RIGHT_PRODUCT_MAX:
            # (T_S (x) I_b)^T set by strided slices, in less time than np.kron
            width = size * b
            op = np.zeros((width, width), t_s.dtype)
            for i in range(b):
                op[i::b, i::b] = t_s.T
            rows = min(self.before, max(1, _GEMM_MAX // width**2))
            return op, (self.before // rows, rows, width), True
        columns = min(b, max(1, _GEMM_MAX // size**2))
        if columns == b:
            return t_s, (self.before, size, b), False
        return t_s, (self.before, size, b // columns, columns), False


def _site_run(n: int, order: tuple | None, step: SuperopStep) -> _SiteRun:
    """The site-pair order a :class:`SuperopStep` on S works in, from a
    matrix stored in ``order`` (labels as in :class:`_State`), and what it
    keeps for that layout. A matrix stored in site-pair order (each
    qubit's row bit, then its column bit: q0, n + q0, q1, n + q1, ...)
    whose sites of S form one contiguous run there stays as it is: the
    step multiplies in place, T_S permuted into the run's site order. Any
    other is moved with S's sites first, then the other qubits in the
    order their row bits are stored in, as pairs. Called once per step
    and layout: :meth:`DensityMatrix._gather_sites` keeps what it
    returns in the step's ``moves``."""
    support, k = step.support, len(step.support)
    current = tuple(range(2 * n)) if order is None else order
    sites, move = current[::2], None
    paired = current[1::2] == tuple(q + n for q in sites)
    where = sorted(sites.index(q) for q in support) if paired else []
    p = where[0] if where else 0
    if not paired or where != list(range(p, p + k)):
        sites = support + tuple(q for q in current if q < n and q not in support)
        p, target = 0, tuple(label for q in sites for label in (q, n + q))
        move, current = _transposition(current, target), target
    run, t_s = sites[p : p + k], step.t_s
    if run != support:
        perm = np.arange(4**k).reshape((4,) * k).transpose([support.index(q) for q in run])
        perm = perm.reshape(-1)
        t_s = t_s[np.ix_(perm, perm)]
    return _SiteRun(current, move, run, 4**p, 4 ** (n - p - k), t_s)


@dataclass(frozen=True, eq=False, slots=True)
class BoundStep:
    """A step circuit lowered once, by :func:`lower_step`, for the state
    type and noise of a run, on its ``support`` S, the sorted work qubits
    its gates touch. Each of its five forms below is one class, which
    names the ``state_type`` that runs it and holds its operators; they
    act on the state in the step's order: on a statevector S's 2^|S|
    rows leading (see :func:`_step_order`), on a density matrix in
    site-pair order with S's sites one run in it for a
    :class:`SuperopStep` (see :func:`_site_run`), and for a sandwich
    S's row bits, then its column bits, then the rest's, as
    (4^|S|, rest^2). ``noise`` is the run's channel (None when
    noiseless).

    ``moves`` maps each layout the step has met, (register size, stored
    order), to its order and the move into it, filled as the step runs:
    one entry per distinct layout, an index of at most 8 KB or a
    transposition (see :func:`_step_order`), or a superoperator step's
    :class:`_SiteRun`. In an order-1 run each step holds one, and the
    first step two when it also follows the last one (with records
    sparser than every Trotter step, or on a density matrix, whose
    records move nothing); at order 2, where a step follows each of its
    neighbours, most hold two and a few three (per-term LiH). A
    superoperator step whose layout settles only after the first Trotter
    step, which starts in canonical order, holds one more: noisy Ising
    n=8's hold two or three. Trajectories share their steps and so their
    moves.
    """

    state_type: ClassVar[type]
    support: tuple[int, ...]
    noise: NoiseModel | None = field(default=None, kw_only=True)
    moves: dict = field(default_factory=dict, repr=False, kw_only=True)


@dataclass(frozen=True, eq=False, slots=True)
class K0Step(BoundStep):
    """A noiseless statevector step on at most ``FUSED_MAX_SUPPORT``
    qubits: one product by ``k0`` = Post_S diag(c_S) Pre_S. A per-term
    step's is a I + b P', filled from the Pauli P' its Pre maps onto the
    pivot (:func:`_pauli_k0`); any other is Post's kernels run on
    diag(c_S) Pre_S. Either way a K0 real in exact arithmetic is exactly
    real and float64 (see the module docstring)."""

    state_type = StateVector
    k0: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class BranchStep(BoundStep):
    """A statevector step that scales Pre's output by the ancilla's
    factors ``c`` = c_S (and ``s`` = s_S on its jump branch), then runs
    the sampled work-qubit noise and ``post``: a noisy step (a
    trajectory) on at most ``FUSED_MAX_SUPPORT`` qubits, ``pre`` and
    ``post`` Pre_S and Post_S, and any wider step, ``pre`` and ``post``
    the circuit's own gate lists, which run through the map {q: i} from
    support[i] to i, as a wide :class:`PassSandwichStep`'s do on a
    density matrix."""

    state_type = StateVector
    pre: np.ndarray | tuple[Gate, ...]
    c: np.ndarray
    s: np.ndarray
    post: np.ndarray | tuple[Gate, ...]


@dataclass(frozen=True, eq=False, slots=True)
class SuperopStep(BoundStep):
    """A density-matrix step on at most ``SUPEROP_MAX_SUPPORT`` qubits:
    ``t_s``, its 4^|S| x 4^|S| superoperator on vec(rho_S) (Pre_S on both
    sides, the weight W, the channel on S, then Post_S), indexed in
    site-pair order (r0 c0 r1 c1 ..., S's qubits in order;
    :func:`_site_pairs`). It runs on a matrix in site-pair order whose
    sites of S form one run, in place when stored so already, each of the
    layouts it meets kept with T_S permuted into the run's site order
    (:class:`_SiteRun`). Its kept weight is the trace of its output, and
    lowering checks that T_S keeps what W leaves of the trace."""

    state_type = DensityMatrix
    t_s: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class MaskSandwichStep(BoundStep):
    """A density-matrix step on at most ``MASK_STACK_MAX_SUPPORT`` qubits
    that no superoperator takes: the sandwich ``pre``, the outcome-0
    weight W[x, y] = c_x c_y + eps_d s_x s_y and the channel on S as one
    real product, then the sandwich ``post``. Each sandwich is an
    (a, phase_in, phase_out) triple of :func:`_phased` (a real where it
    can be), a on S's row bits and a^dag on its column bits (see
    :func:`_sandwich`), None for an empty gate list; its phase factors
    stay in it. Its kept weight is the trace after the stack, before
    ``post``, and lowering checks that the stack keeps what W leaves of
    the trace.

    Neither W nor the channel changes an entry's X mask x = r XOR c (r
    and c its row and column on S; :func:`_adjoint_diagonals` relies on
    the same), so on the 4^k entries of S's block (k = |S|), ordered by
    X mask (:func:`_mask_order`), the two are block-diagonal: ``stack[x]``
    = diag(F_x) Z_x diag(W_x), over the 2^k entries (r, r ^ x) indexed by
    r. W_x is W, F_x the channel's elementwise factor
    (:func:`_channel_factors`), and
    Z_x = (x) over q of (x_q ? I : [[1, eps_d], [0, 1]]) on r's bit q
    holds the jumps, which move weight from r_q = c_q = 1 to 0 only. The
    jumps act before F, as in :func:`_channel` (see :func:`_by_mask`)."""

    state_type = DensityMatrix
    pre: tuple | None
    stack: np.ndarray
    post: tuple | None


@dataclass(frozen=True, eq=False, slots=True)
class PassSandwichStep(BoundStep):
    """A density-matrix step that no X-mask stack takes: the sandwich
    ``pre``, then W (:func:`_weights` of the ancilla's factors ``c`` =
    c_S and ``s`` = s_S, built as the step runs, so that no step holds
    its 4^|S| entries) scaling S's block entry by entry and the channel
    on S as passes (:func:`_channel`), then the sandwich ``post``. On at
    most ``FUSED_MAX_SUPPORT`` qubits each sandwich is the
    :func:`_phased` triple of Pre_S or Post_S, as in a
    :class:`MaskSandwichStep`; on a wider support, whose matrices would
    grow as 4^|S|, it is the circuit's own gate list as a
    (gates, None, None) triple, which the kernels run through the map
    {q: i} from support[i] to i. Either is None for an empty gate list.
    Its kept weight is the trace after W, before the channel and
    ``post``."""

    state_type = DensityMatrix
    pre: tuple | None
    c: np.ndarray
    s: np.ndarray
    post: tuple | None


def _positions(gate: Gate, position: dict[int, int]) -> tuple[int, ...]:
    """``position[q]`` for each qubit q of ``gate``, in ``qubits_of`` order."""
    qubits = qubits_of(gate)
    outside = [q for q in qubits if q not in position]
    if outside:
        raise ValueError(f"{gate!r} acts on qubit(s) {outside} outside the step's support")
    return tuple(position[q] for q in qubits)


def _on_support(gates: tuple[Gate, ...], support: tuple[int, ...]) -> np.ndarray:
    """The 2^k x 2^k matrix of work gates on their support (k qubits),
    built by running the state kernels on the identity columns, qubit
    support[i] on axis i. A leading dense block on the whole support in
    order is its own matrix there."""
    if gates and isinstance(gates[0], DenseBlock) and gates[0].qubits == support:
        m, gates = gates[0].matrix, gates[1:]
    else:
        m = np.eye(2 ** len(support))
    return real_if_exact(_product(gates, m, axes={q: i for i, q in enumerate(support)}))


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


@lru_cache(maxsize=None)
def _parities(k: int) -> np.ndarray:
    """popcount(y) & 1 for each y in range(2^k), read-only."""
    parity = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        parity = np.concatenate((parity, parity ^ 1))
    parity.setflags(write=False)
    return parity


def _pivot_pauli(
    pre: tuple[Gate, ...], pivot: int, support: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """P' = Pre^dag Z_pivot Pre as (x, z, phase): P' = i^phase X^x Z^z on
    S, its bit masks in S's basis order, walking Pre from its last gate to
    its first by the stabilizer conjugation rules; None when Pre has a
    gate other than Hadamard, PhaseS, PhaseSdg, PauliX and CNOT."""
    k = len(support)
    bits = {q: 1 << (k - 1 - i) for i, q in enumerate(support)}
    x, z, phase = 0, bits[pivot], 0
    for g in reversed(pre):  # P <- g^dag P g
        kind = type(g)
        if kind is CNOT:
            if x & bits[g.control]:
                x ^= bits[g.target]
            if z & bits[g.target]:
                z ^= bits[g.control]
            continue
        if kind not in _CLIFFORD_1Q:
            return None
        bit = bits[g.qubit]
        if kind is Hadamard:
            phase += 2 * (x & z & bit > 0)
            swap = (x ^ z) & bit
            x, z = x ^ swap, z ^ swap
        elif kind is PauliX:
            phase += 2 * (z & bit > 0)
        elif x & bit:  # S adds 3, S^dag 1, and each sets z ^= x
            phase += 3 if kind is PhaseS else 1
            z ^= bit
    return x, z, phase & 3


def _pauli_k0(
    pre: tuple[Gate, ...],
    rotation: tuple[Gate, ...],
    post: tuple[Gate, ...],
    support: tuple[int, ...],
    c: np.ndarray,
) -> np.ndarray | None:
    """K0 of a per-term step, or None for any other circuit: a Pre of
    Hadamard, PhaseS, PhaseSdg, PauliX and CNOT gates, one
    ``ControlledRy`` from a qubit of S onto the ancilla and a Post that is
    Pre's adjoint. Then K0 = Pre^dag diag(c_S) Pre = a I + b P', with
    a, b = (1 +- cos(theta/2))/2 and P' = Pre^dag Z_pivot Pre
    (:func:`_pivot_pauli`), which maps |y> to
    i^phase (-1)^popcount(y & z) |y ^ x>. So K0 is real exactly when the
    phase is even (or b = 0); a diagonal P' (x = 0) takes its entries 1
    and cos(theta/2) as c holds them."""
    if len(rotation) != 1 or type(rotation[0]) is not ControlledRy or post != adjoint_sequence(pre):
        return None
    pauli = _pivot_pauli(pre, rotation[0].control, support)
    if pauli is None:
        return None
    x, z, phase = pauli
    cos = float(c[-1])  # c where every bit, the pivot's too, is 1
    basis = np.arange(len(c))
    # the parity of popcount(y & z) + phase // 2, the sign of the entry of P'
    # in column y (of its imaginary part when the phase is odd)
    odd = _parities(len(support))[basis & z] ^ (phase >> 1)
    if not x:
        return np.diag(np.where(odd, cos, 1.0))
    off = (1.0 - cos) / 2 * (1.0 - 2.0 * odd)
    if phase & 1 and cos != 1.0:
        off = off * 1j
    k0 = np.zeros((len(c), len(c)), off.dtype)
    k0[basis, basis] = (1.0 + cos) / 2
    k0[basis ^ x, basis] = off
    return k0


def _check_kept_trace(got: np.ndarray, want: np.ndarray, name: str) -> None:
    """Raise ``AssertionError`` unless ``got``, the trace that a lowered
    density-matrix step's operator ``name`` leaves of each entry of its
    input, equals ``want``, what W alone leaves, within 1e-12. A NaN
    in W is left to the outcome rule, which rejects it when the step
    runs."""
    off = np.abs(got - want)
    if (off > 1e-12).any():
        raise AssertionError(
            f"{name} does not keep the trace that W leaves: off by {np.nanmax(off):.3e}"
        )


def lower_step(
    circuit: Circuit, state: StateVector | DensityMatrix, noise: NoiseModel | None = None
) -> BoundStep:
    """Lower a step circuit once for ``state``'s type and ``noise`` into
    one of the five :class:`BoundStep` forms, the one place that picks it.

    The rotation runs from the first gate that touches the ancilla to the
    measurement; each of its gates must be a y-rotation targeting the
    ancilla, and every gate of Pre (the gates before the rotation) and of
    Post one that the kernels run; else it raises ``ValueError``. Each
    check runs before anything is built. A noiseless statevector step of
    the per-term shape (see :func:`_pauli_k0`) then takes its K0 from the
    Pauli its Pre maps onto the pivot, with no kernel run. Otherwise Pre_S
    (and Post_S, unless Post's gates invert Pre's) is the gate kernels
    run on the identity columns with each qubit on its position in S; any
    other noiseless statevector step builds no Post_S, but runs Post's
    kernels on diag(c_S) Pre_S, which makes K0 exactly real whenever its
    imaginary part cancels. A density matrix's T_S is
    (Post_S (x) Post_S*) N_S diag(vec W) (Pre_S (x) Pre_S*), with N_S one
    application of the channel on S, taken into site-pair order.

    A density-matrix step reads prob0 as the trace of its output, which
    would hide any trace that its fused channel or Post_S lost. So T_S,
    and an X-mask stack, must keep what W leaves of the trace, within
    1e-12, or lowering raises ``AssertionError``
    (:func:`_check_kept_trace`), as :class:`NoiseModel` does for Kraus
    completeness.
    """
    ancilla = circuit.ancilla
    pre, post = circuit.pre_measure, circuit.post_measure
    qubits = [qubits_of(g) for g in circuit.gates]
    split = next((i for i, q in enumerate(qubits[: len(pre)]) if ancilla in q), len(pre))
    pre, rotation = pre[:split], pre[split:]
    for g, q in zip(rotation, qubits[split:]):
        if not isinstance(g, (Ry, ControlledRy, ConditionalRy)) or q[-1] != ancilla:
            raise ValueError(
                f"step circuit has {g!r} between its ancilla rotation and the measurement; "
                "only y-rotations targeting the ancilla may sit there"
            )
    kernels = (Hadamard, PhaseS, PhaseSdg, PauliX, CNOT, DenseBlock)
    for g in (*pre, *post):
        if not isinstance(g, kernels):
            raise ValueError(
                f"step circuit has {g!r} on its work register, which no kernel runs; "
                "only Hadamard, PhaseS, PhaseSdg, PauliX, CNOT and DenseBlock gates may "
                "sit before the ancilla rotation or after the measurement"
            )
    support = tuple(sorted({i for q in qubits for i in q} - {ancilla}))
    c, s = _fold_rotation(rotation, support, ancilla)
    if noise is not None and noise.is_identity:
        noise = None
    if len(support) > FUSED_MAX_SUPPORT:
        if isinstance(state, StateVector):
            return BranchStep(support, pre, c, s, post, noise=noise)
        # sandwiches, left out when empty
        pre_g, post_g = ((g, None, None) if g else None for g in (pre, post))
        return PassSandwichStep(support, pre_g, c, s, post_g, noise=noise)
    fused_k0 = isinstance(state, StateVector) and noise is None
    k0 = _pauli_k0(pre, rotation, post, support, c) if fused_k0 else None
    if k0 is not None:
        return K0Step(support, k0)
    pre_s = _on_support(pre, support)
    if fused_k0:
        # K0 = Post_S diag(c_S) Pre_S by Post's kernels on S
        position = {q: i for i, q in enumerate(support)}
        k0 = _product(post, c[:, None] * pre_s, overwrite=True, axes=position)
        return K0Step(support, real_if_exact(k0))
    inverse = post == adjoint_sequence(pre)
    post_s = np.ascontiguousarray(pre_s.conj().T) if inverse else _on_support(post, support)
    if isinstance(state, DensityMatrix):
        eps_d = 0.0 if noise is None else noise.eps_d
        if len(support) <= SUPEROP_MAX_SUPPORT:
            k, weights = len(support), _weights(c, s, eps_d)
            pre_t = _pair_product(pre_s)
            # (A (x) conj(A))^dag is that of A^dag, entry for entry
            post_t = pre_t.conj().T if inverse else _pair_product(post_s)
            superop = weights.reshape(-1)[_site_pairs(k)][:, None] * pre_t
            if noise is not None:
                superop = _channel_superop(noise, (1,) * k) @ superop
            superop = post_t @ superop
            # the trace of T_S rho against sum_x W[x, x] (Pre rho Pre^dag)[x, x]
            diagonal = _diagonal_sites(k)
            _check_kept_trace(superop[diagonal].sum(0), weights.diagonal() @ pre_t[diagonal], "T_S")
            return SuperopStep(support, superop, noise=noise)
        # an empty gate list leaves its sandwich out
        pre_op = _phased(pre_s) if pre else None
        post_op = _phased(post_s) if post else None
        if len(support) <= MASK_STACK_MAX_SUPPORT:
            weights = _weights(c, s, eps_d)
            stack = _mask_stage(weights, noise)
            # the diagonal block, X mask 0, against W on the diagonal
            _check_kept_trace(stack[0].sum(0), weights.diagonal(), "the X-mask stack")
            return MaskSandwichStep(support, pre_op, stack, post_op, noise=noise)
        return PassSandwichStep(support, pre_op, c, s, post_op, noise=noise)
    return BranchStep(support, pre_s, c, s, post_s, noise=noise)


def run_step_circuit(
    state: StateVector | DensityMatrix,
    step: BoundStep,
    rng: np.random.Generator | None = None,
) -> float:
    """One measured step circuit, lowered by :func:`lower_step` for this
    state's type, on the work register, its ancilla postselected; returns
    prob0.

    Each state type runs every step form down one pipeline (see
    :class:`BoundStep`): Pre on the state gathered in the step's order,
    the outcome rule of :func:`_postselected`, the work-qubit channel
    (exact on S and owed on the other qubits on a density matrix; one
    sampled trajectory on a statevector, which needs ``rng``), then Post.
    """
    if not isinstance(state, step.state_type):
        raise TypeError(f"step lowered for {step.state_type.__name__}, got {type(state).__name__}")
    return state._run_step(step, rng)
