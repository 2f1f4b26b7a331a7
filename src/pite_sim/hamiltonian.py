"""Pauli-string Hamiltonians and the three built-in model systems.

A Hamiltonian is a weighted sum of Pauli product terms plus a scalar
identity offset:

    H = c0 * I + sum_k c_k * (P_k1 x P_k2 x ... x P_kn),   P in {I, X, Y, Z}

The identity offset is kept separate because it only shifts the spectrum:
it enters reported energies but never the evolution circuits.

Qubit convention: qubits are indexed 0..n-1 internally (model descriptions
use 1-based labels); qubit 0 is the most significant bit of a basis-state
index, so the basis string "110000" is statevector index 0b110000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "PauliAxis",
    "PauliTerm",
    "PauliHamiltonian",
    "InitialState",
    "parse_hamiltonian",
    "build_h2",
    "build_lih",
    "build_ising",
    "prepare_initial",
    "optimize_product_angle",
    "ising_product_energy",
    "H2_DISTANCES",
]


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` as float64 when its imaginary part is exactly 0 (or
    it has none), else as complex128: the rule that keeps the operators
    and states of a real-valued model in real arithmetic (a noiseless LiH
    K0 step took 3.6 us on a float64 state against 5.3 us on the same
    state and K0s in complex128, medians over 80 interleaved passes of
    the 61 terms on a shared 2-vCPU Xeon, one BLAS thread, numpy 2.4)."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(np.complex128)
    return a.real.astype(np.float64)


class PauliAxis(Enum):
    """Single-qubit Pauli axis label."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli product term.

    The coefficient must be finite and nonzero, and at least one axis must
    be non-identity; pure-identity contributions belong in the
    Hamiltonian's ``identity_offset``.
    """

    coeff: float
    axes: tuple[PauliAxis, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.coeff):
            raise ValueError(f"term coefficient must be finite, got {self.coeff}")
        if self.coeff == 0.0:
            raise ValueError("term coefficient must be nonzero")
        if not self.axes:
            raise ValueError("term must act on at least one qubit")
        if all(a is PauliAxis.I for a in self.axes):
            raise ValueError("pure-identity term belongs in identity_offset")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of the non-identity axes."""
        return tuple(q for q, a in enumerate(self.axes) if a is not PauliAxis.I)

    @property
    def axes_string(self) -> str:
        return "".join(a.value for a in self.axes)

    @staticmethod
    def from_string(coeff: float, axes: str) -> "PauliTerm":
        return PauliTerm(coeff, _axes_from_string(axes))


def _axes_from_string(s: str) -> tuple[PauliAxis, ...]:
    try:
        return tuple(PauliAxis(c) for c in s.upper())
    except ValueError:
        bad = sorted(set(c for c in s.upper() if c not in "IXYZ"))
        raise ValueError(f"invalid axis character(s) {bad} in {s!r}") from None


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of Pauli terms plus identity offset on a fixed register."""

    n_qubits: int
    terms: tuple[PauliTerm, ...]
    identity_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not self.terms:
            raise ValueError("Hamiltonian needs at least one non-identity term")
        for t in self.terms:
            if t.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.axes_string!r} has {t.n_qubits} axes, expected {self.n_qubits}"
                )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def dense_matrix(self, include_offset: bool = True) -> np.ndarray:
        """Dense 2^n x 2^n matrix, float64 exactly when :attr:`x_mask_stack`
        is (every built-in model's is), else complex128.

        Scattered from :attr:`x_mask_stack`: entry (b ^ x, b) is d_x[b],
        summed over the terms in the same order as the sum of their
        Kronecker products."""
        dim = 2**self.n_qubits
        basis = np.arange(dim)
        _, index, stack = self.x_mask_stack
        m = np.zeros((dim, dim), stack.dtype)
        m[index, basis] += stack  # distinct masks: each entry is written once
        if include_offset:
            m[basis, basis] += self.identity_offset
        return m

    # Computed on first use and kept in the instance __dict__ (the
    # dataclass fields, hash and equality do not see them), so an energy
    # evaluation reads them without hashing the Hamiltonian.

    @cached_property
    def abs_coeff_sum(self) -> float:
        """Sum of |c_k| over the non-identity terms."""
        return float(sum(abs(t.coeff) for t in self.terms))

    @cached_property
    def x_mask_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Hamiltonian without its offset over its distinct X masks:
        the masks x, the gather index b ^ x and the diagonals d_x, each row
        one mask, all read-only.

        A Pauli string with X mask x (its X and Y factors), Z mask z (its Z
        and Y factors) and y Y factors maps |b> to i^y (-1)^popcount(b & z)
        |b ^ x>, since Y = iXZ. So <psi|H|psi> is the sum over x of
        sum_b conj(psi[b ^ x]) psi[b] d_x[b], where d_x[b] sums
        coeff i^y (-1)^popcount(b & z) over the terms with that x: one
        ``vdot(psi[index], stack * psi)`` over every mask at once (8 masks
        for LiH's 61 terms). The stack is float64 when every phase is real.
        """
        n = self.n_qubits
        x_masks, z_masks, scales = [], [], []
        for term in self.terms:
            x_mask = z_mask = y_count = 0
            for q, axis in enumerate(term.axes):
                bit = 1 << (n - 1 - q)
                if axis in (PauliAxis.X, PauliAxis.Y):
                    x_mask |= bit
                if axis in (PauliAxis.Z, PauliAxis.Y):
                    z_mask |= bit
                y_count += axis is PauliAxis.Y
            x_masks.append(x_mask)
            z_masks.append(z_mask)
            scales.append(term.coeff * (1, 1j, -1, -1j)[y_count % 4])
        z_masks, scales = np.array(z_masks), np.array(scales)
        basis = np.arange(2**n)
        diagonals: dict[int, np.ndarray] = {}
        chunk = max(1, 2**16 >> n)  # terms per vectorized pass, bounding its memory
        for first in range(0, len(self.terms), chunk):
            parity = basis & z_masks[first : first + chunk, None]  # one row per term
            shift = 1
            while shift < n:
                parity ^= parity >> shift
                shift *= 2
            rows = scales[first : first + chunk, None] * (1.0 - 2.0 * (parity & 1))
            for x, row in zip(x_masks[first : first + chunk], rows):
                diagonals[x] = diagonals.get(x, 0.0) + row  # in term order
        masks = np.array(list(diagonals))
        index = basis ^ masks[:, None]
        stack = real_if_exact(np.array(list(diagonals.values())))
        for a in (masks, index, stack):
            a.setflags(write=False)
        return masks, index, stack


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse the line-oriented Hamiltonian format.

    One term per line, ``<coeff> <axes>`` with axes a string over
    {I, X, Y, Z}; ``#`` starts a comment; pure-identity lines accumulate
    into the identity offset; zero-coefficient lines are dropped.
    """
    terms: list[PauliTerm] = []
    offset = 0.0
    n_qubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coeff> <axes>', got {raw!r}")
        coeff_s, axes_s = parts
        try:
            coeff = float(coeff_s)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed coefficient {coeff_s!r}") from None
        if not math.isfinite(coeff):
            raise ValueError(f"line {lineno}: non-finite coefficient {coeff_s!r}")
        axes = _axes_from_string(axes_s)
        if n_qubits is None:
            n_qubits = len(axes)
        elif len(axes) != n_qubits:
            raise ValueError(
                f"line {lineno}: axis string length {len(axes)} != {n_qubits} from first term"
            )
        if all(a is PauliAxis.I for a in axes):
            offset += coeff
        elif coeff != 0.0:
            terms.append(PauliTerm(coeff, axes))
    if n_qubits is None:
        raise ValueError("empty Hamiltonian file")
    if not terms:
        raise ValueError("no non-identity terms with nonzero coefficient")
    return PauliHamiltonian(n_qubits, tuple(terms), offset)


# Two-qubit H2 Hamiltonian: c0*I + c1*Z1 + c1*Z2 + c2*Z1Z2 + c3*X1X2,
# tabulated coefficients per interatomic distance R in angstrom.
_H2_TABLE: dict[float, tuple[str, str, str, str]] = {
    0.35: ("7.01273E-01", "-7.47416E-01", "1.31036E-02", "1.62573E-01"),
    0.45: ("2.67547E-01", "-6.33890E-01", "1.27192E-02", "1.66621E-01"),
    0.55: ("-1.83734E-02", "-5.36489E-01", "1.23003E-02", "1.71244E-01"),
    0.65: ("-2.13932E-01", "-4.55433E-01", "1.18019E-02", "1.76318E-01"),
    0.75: ("-3.49833E-01", "-3.88748E-01", "1.11772E-02", "1.81771E-01"),
    0.85: ("-4.45424E-01", "-3.33747E-01", "1.04061E-02", "1.87562E-01"),
    1.05: ("-5.62600E-01", "-2.48783E-01", "8.50998E-03", "1.99984E-01"),
    1.25: ("-6.23223E-01", "-1.86173E-01", "6.45563E-03", "2.13102E-01"),
    1.45: ("-6.52661E-01", "-1.38977E-01", "4.59760E-03", "2.26294E-01"),
}

H2_DISTANCES: tuple[float, ...] = tuple(sorted(_H2_TABLE))


def build_h2(R: float) -> PauliHamiltonian:
    """Two-qubit H2 Hamiltonian at one of the tabulated distances.

    Parameters
    ----------
    R : float
        Interatomic distance in angstrom; must be one of ``H2_DISTANCES``.
    """
    if R not in _H2_TABLE:
        raise ValueError(
            f"R={R} not tabulated; available: {', '.join(str(r) for r in H2_DISTANCES)}"
        )
    c0, c1, c2, c3 = (float(c) for c in _H2_TABLE[R])
    terms = (
        PauliTerm.from_string(c1, "ZI"),
        PauliTerm.from_string(c1, "IZ"),
        PauliTerm.from_string(c2, "ZZ"),
        PauliTerm.from_string(c3, "XX"),
    )
    return PauliHamiltonian(2, terms, identity_offset=c0)


# Six-qubit LiH Hamiltonian: 61 non-identity terms plus identity offset.
_LIH_OFFSET = "-7.35094E+00"
_LIH_TABLE: tuple[tuple[str, str], ...] = (
    ("-1.58950E-01", "ZIIIII"),
    ("-1.58950E-01", "IZIIII"),
    ("7.82811E-02", "ZZIIII"),
    ("-1.45795E-01", "IIZIII"),
    ("-1.45795E-01", "IIIZII"),
    ("8.51132E-02", "IIZZII"),
    ("2.96723E-02", "IIIIZI"),
    ("2.96723E-02", "IIIIIZ"),
    ("1.24302E-01", "IIIIZZ"),
    ("5.36162E-02", "ZIZIII"),
    ("6.03396E-02", "IIZIZI"),
    ("6.28713E-02", "ZIIIZI"),
    ("5.64568E-02", "ZIIZII"),
    ("6.03396E-02", "IIIZIZ"),
    ("6.87743E-02", "ZIIIIZ"),
    ("5.36162E-02", "IZIZII"),
    ("6.87743E-02", "IZIIZI"),
    ("7.06853E-02", "IIIZZI"),
    ("5.64568E-02", "IZZIII"),
    ("6.28713E-02", "IZIIIZ"),
    ("7.06853E-02", "IIZIIZ"),
    ("-1.49854E-03", "XIXIII"),
    ("-1.49854E-03", "YIYIII"),
    ("1.13678E-02", "IXIXII"),
    ("1.13678E-02", "IYIYII"),
    ("1.04793E-02", "XZXIII"),
    ("1.04793E-02", "YZYIII"),
    ("1.04793E-02", "IXZXII"),
    ("1.04793E-02", "IYZYII"),
    ("-1.17598E-03", "XZXZII"),
    ("-1.17598E-03", "YZYZII"),
    ("-1.49854E-03", "IXZXZI"),
    ("-1.49854E-02", "IYZYZI"),
    ("1.13678E-02", "XZXIIZ"),
    ("1.13678E-02", "YZYIIZ"),
    ("-1.17598E-03", "ZXZXII"),
    ("-1.17598E-03", "ZYZYII"),
    ("3.56300E-03", "XZXIZI"),
    ("3.56300E-03", "YZYIZI"),
    ("3.56300E-03", "IXZXIZ"),
    ("3.56300E-03", "IYZYIZ"),
    ("-1.03458E-02", "XXYYII"),
    ("-1.03458E-02", "YYXXII"),
    ("1.03458E-02", "XYYXII"),
    ("1.03458E-02", "YXXYII"),
    ("-2.84063E-03", "IIXXYY"),
    ("-2.84063E-03", "IIYYXX"),
    ("2.84063E-03", "IIXYYX"),
    ("2.84063E-03", "IIYXXY"),
    ("-5.90301E-03", "XXIIYY"),
    ("-5.90301E-03", "YYIIXX"),
    ("5.90301E-03", "XYIIYX"),
    ("5.90301E-03", "YXIIXY"),
    ("-4.73898E-03", "IXXIXX"),
    ("-4.73898E-03", "IYYIYY"),
    ("-4.73898E-03", "IXYIYX"),
    ("-4.73898E-03", "IYXIXY"),
    ("-4.73898E-03", "XZZXYY"),
    ("-4.73898E-03", "YZZYXX"),
    ("4.73898E-03", "XZZYYX"),
    ("4.73898E-03", "YZZXXY"),
)


def build_lih() -> PauliHamiltonian:
    """Six-qubit LiH Hamiltonian (61 non-identity terms, tabulated).

    The tabulated operator labels number orbitals little-endian relative to
    basis-string kets, so orbital j lands at string position 6 - j; with
    that mapping the reference determinant |110000> is the lowest-energy
    basis state, as it must be.
    """
    terms = tuple(PauliTerm.from_string(float(c), axes[::-1]) for c, axes in _LIH_TABLE)
    return PauliHamiltonian(6, terms, identity_offset=float(_LIH_OFFSET))


def build_ising(n: int, J: float, g: float, h: float) -> PauliHamiltonian:
    """Cyclic quantum Ising chain with transverse and longitudinal fields.

        H = -J * sum_j ( Z_j Z_{j+1} + g X_j + h Z_j ),   Z_{n+1} = Z_1

    Terms are emitted in the order: all ZZ bonds, all X fields, all Z
    fields; zero-coefficient terms are dropped.

    Parameters
    ----------
    n : int
        Site count, at least 3 (n=2 would double-count the single bond).
    J, g, h : float
        Coupling and the transverse/longitudinal field magnitudes.
    """
    if n < 3:
        raise ValueError(f"cyclic chain needs n >= 3 sites, got {n}")
    terms: list[PauliTerm] = []

    def axes_with(positions: dict[int, PauliAxis]) -> tuple[PauliAxis, ...]:
        return tuple(positions.get(q, PauliAxis.I) for q in range(n))

    if -J != 0.0:
        for j in range(n):
            terms.append(
                PauliTerm(-J, axes_with({j: PauliAxis.Z, (j + 1) % n: PauliAxis.Z}))
            )
    if -J * g != 0.0:
        for j in range(n):
            terms.append(PauliTerm(-J * g, axes_with({j: PauliAxis.X})))
    if -J * h != 0.0:
        for j in range(n):
            terms.append(PauliTerm(-J * h, axes_with({j: PauliAxis.Z})))
    if not terms:
        raise ValueError("all Ising couplings are zero; evolution target undefined")
    return PauliHamiltonian(n, tuple(terms), identity_offset=0.0)


@dataclass(frozen=True)
class InitialState:
    """Recipe for the work-register initial state.

    kind "basis": a computational basis state given by ``bits``.
    kind "superposition": sum of weighted basis states from ``parts``.
    kind "product": uniform single-qubit product state
    (cos(phi/2)|0> + sin(phi/2)|1>)^n; ``phi`` may be given explicitly or
    left None to be optimized for the Ising parameters in ``ising_params``.
    """

    kind: str
    bits: str = ""
    parts: tuple[tuple[float, str], ...] = ()
    phi: float | None = None
    ising_params: tuple[float, float, float] | None = None

    @staticmethod
    def basis(bits: str) -> "InitialState":
        return InitialState(kind="basis", bits=bits)

    @staticmethod
    def superposition(parts: list[tuple[float, str]]) -> "InitialState":
        return InitialState(kind="superposition", parts=tuple(parts))

    @staticmethod
    def product(
        phi: float | None = None,
        ising_params: tuple[float, float, float] | None = None,
    ) -> "InitialState":
        return InitialState(kind="product", phi=phi, ising_params=ising_params)


def _basis_index(bits: str, n: int) -> int:
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(f"basis string {bits!r} is not a {n}-bit 0/1 string")
    return int(bits, 2)


def ising_product_energy(phi: float, n: int, J: float, g: float, h: float) -> float:
    """Energy of the uniform product state under the cyclic Ising chain.

    Closed form: E(phi) = -J*n*(cos^2(phi) + g*sin(phi) + h*cos(phi)).
    """
    c, s = math.cos(phi), math.sin(phi)
    return -J * n * (c * c + g * s + h * c)


def optimize_product_angle(J: float, g: float, h: float) -> float:
    """Angle phi0 in [0, pi] minimizing the product-state Ising energy.

    Grid scan at 1e-3 resolution followed by local grid refinement down to
    1e-8; deterministic for fixed parameters.
    """
    def f(phi: float) -> float:
        return ising_product_energy(phi, 1, J, g, h)

    step = 1e-3
    grid = np.arange(0.0, math.pi + step, step)
    best = float(grid[int(np.argmin([f(p) for p in grid]))])
    while step > 1e-8:
        step /= 10.0
        lo = max(0.0, best - 10 * step)
        hi = min(math.pi, best + 10 * step)
        grid = np.arange(lo, hi + step / 2, step)
        best = float(grid[int(np.argmin([f(p) for p in grid]))])
    return best


def prepare_initial(spec: InitialState, n_qubits: int) -> np.ndarray:
    """Materialize an :class:`InitialState` as a unit-norm statevector."""
    dim = 2**n_qubits
    vec = np.zeros(dim, dtype=complex)
    if spec.kind == "basis":
        vec[_basis_index(spec.bits, n_qubits)] = 1.0
    elif spec.kind == "superposition":
        if not spec.parts:
            raise ValueError("superposition needs at least one component")
        for w, bits in spec.parts:
            vec[_basis_index(bits, n_qubits)] += w
        norm = np.linalg.norm(vec)
        if norm < 1e-15:
            raise ValueError("superposition weights are not normalizable")
        vec /= norm
    elif spec.kind == "product":
        phi = spec.phi
        if phi is None:
            if spec.ising_params is None:
                raise ValueError("product state needs phi or ising_params")
            phi = optimize_product_angle(*spec.ising_params)
        one_qubit = np.array([math.cos(phi / 2), math.sin(phi / 2)], dtype=complex)
        vec = np.array([1.0], dtype=complex)
        for _ in range(n_qubits):
            vec = np.kron(vec, one_qubit)
    else:
        raise ValueError(f"unknown initial-state kind {spec.kind!r}")
    return vec
