"""Minimal pure-state simulator for one to three qubits.

Conventions:
  * qubit 0 is the leftmost tensor factor (most significant amplitude index bit);
  * the Y gate is the real matrix [[0, 1], [-1, 0]] (= ZX), so Y|0> = -|1>;
  * Z-basis outcomes map |0> -> 0, |1> -> 1; X-basis outcomes map |+> -> 0, |-> -> 1.

All operations are pure functions of (state, rng); states are immutable after
construction. Probabilistic operations take an explicit numpy Generator so runs
are replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: tolerance for algebraic identities (unitarity, hermiticity)
ALGEBRA_ATOL = 1e-12
#: tolerance for state normalization
NORM_ATOL = 1e-10
#: default tolerance for global-phase comparison
PHASE_TOL = 1e-9

MAX_QUBITS = 3

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Basis(Enum):
    Z = "Z"
    X = "X"


class BellKind(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    # real Y (= ZX); the dense-coding identities below rely on this form
    "Y": np.array([[0, 1], [-1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
}


class PureState:
    """Unit-norm complex amplitude vector over 1..3 qubits."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amps, _checked: bool = False):
        amps = np.asarray(amps, dtype=complex)
        dim = amps.shape[0]
        n = dim.bit_length() - 1
        if amps.ndim != 1 or dim != 1 << n or not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"amplitude vector of dimension {dim} is not a 1..{MAX_QUBITS} qubit register")
        if not _checked:
            if not np.all(np.isfinite(amps.view(float))):
                raise ValueError("amplitudes must be finite")
            norm2 = float(np.vdot(amps, amps).real)
            if abs(norm2 - 1.0) > NORM_ATOL:
                raise ValueError(f"state is not normalized (|amps|^2 = {norm2})")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __repr__(self):
        return f"PureState({np.array2string(self.amps, precision=4)})"


# single-qubit constants
ZERO = PureState([1, 0], _checked=True)
ONE = PureState([0, 1], _checked=True)
PLUS = PureState([_INV_SQRT2, _INV_SQRT2], _checked=True)
MINUS = PureState([_INV_SQRT2, -_INV_SQRT2], _checked=True)
#: qubit-0 outcome eigenstates, indexed 2 * (X basis) + bit
_EIGENSTATES = np.array([ZERO.amps, ONE.amps, PLUS.amps, MINUS.amps])


def _apply_matrix(amps: np.ndarray, mat: np.ndarray, target: int) -> np.ndarray:
    cube = amps.reshape(1 << target, 2, -1)
    return np.einsum("ij,ajb->aib", mat, cube).reshape(-1)


def apply_gate(state: PureState, gate: str, target: int) -> PureState:
    """Apply one of the named 2x2 gates to the target qubit."""
    if not 0 <= target < state.n_qubits:
        raise IndexError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")
    mat = GATES[gate]
    return PureState(_apply_matrix(state.amps, mat, target), _checked=True)


def measure(state: PureState, basis: Basis, target: int, rng: np.random.Generator) -> tuple[int, PureState]:
    """Projective measurement of one qubit; returns (bit, collapsed state).

    The X basis is handled by conjugating a Z measurement with H, so the
    collapsed state is the corresponding X eigenstate on the target factor.
    """
    if not 0 <= target < state.n_qubits:
        raise IndexError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")
    amps = state.amps
    if basis is Basis.X:
        amps = _apply_matrix(amps, GATES["H"], target)
    cube = amps.reshape(1 << target, 2, -1)
    p1 = float(np.sum(np.abs(cube[:, 1, :]) ** 2))
    bit = 1 if rng.random() < p1 else 0
    collapsed = np.zeros_like(cube)
    collapsed[:, bit, :] = cube[:, bit, :]
    p = p1 if bit else 1.0 - p1
    out = collapsed.reshape(-1) / np.sqrt(p)
    if basis is Basis.X:
        out = _apply_matrix(out, GATES["H"], target)
    return bit, PureState(out, _checked=True)


def measure_batch(amps: np.ndarray, x_basis: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure qubit 0 of every row of a ``(T, 2^n)`` amplitude block.

    Row t is measured in the X basis where ``x_basis[t]`` is set, else in the
    Z basis, and reads 1 iff ``u[t]`` is below its Born probability of 1, as
    :func:`measure` reads its ``rng.random()``. Returns the bits (bool, shape
    ``(T,)``) and the collapsed block: each row is the measured eigenstate of
    qubit 0 (|0>, |1>, |+> or |->) times the renormalised projection of the
    row onto it, which is what :func:`measure`'s H conjugation gives.
    """
    half = amps.shape[1] // 2
    lo, hi = amps[:, :half], amps[:, half:]
    # project qubit 0 onto the eigenstates of each row's basis, which are real
    base = 2 * x_basis
    one = _EIGENSTATES[base + 1]
    p1 = (np.abs(one[:, :1] * lo + one[:, 1:] * hi) ** 2).sum(axis=1)
    bits = u < p1
    eigen = _EIGENSTATES[base + bits]
    rest = (eigen[:, :1] * lo + eigen[:, 1:] * hi) / np.sqrt(np.where(bits, p1, 1.0 - p1))[:, None]
    return bits, (eigen[:, :, None] * rest[:, None, :]).reshape(len(amps), -1)


_BELL_AMPS: dict[BellKind, np.ndarray] = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _INV_SQRT2,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _INV_SQRT2,
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _INV_SQRT2,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _INV_SQRT2,
}


def make_bell(kind: BellKind) -> PureState:
    """Return one of the four maximally entangled two-qubit states."""
    return PureState(_BELL_AMPS[kind].copy(), _checked=True)


def bell_measure(state: PureState, qubits: tuple[int, int] = (0, 1)) -> BellKind:
    """Identify which Bell state a two-qubit register is in (up to global phase).

    Only full two-qubit registers are supported; the protocol never needs a
    Bell measurement embedded in a larger register.
    """
    if state.n_qubits != 2:
        raise ValueError("bell_measure requires a two-qubit state")
    if sorted(qubits) != [0, 1]:
        raise ValueError(f"invalid qubit pair {qubits}")
    amps = state.amps
    if qubits == (1, 0):
        amps = amps.reshape(2, 2).T.reshape(-1)
    for kind, bell in _BELL_AMPS.items():
        if abs(np.vdot(bell, amps)) >= 1.0 - NORM_ATOL:
            return kind
    raise ValueError("state is not within tolerance of any Bell state")


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two registers (combined size capped at 3 qubits)."""
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise ValueError(f"combined register of {a.n_qubits + b.n_qubits} qubits exceeds {MAX_QUBITS}")
    return PureState(np.kron(a.amps, b.amps), _checked=True)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > ALGEBRA_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > NORM_ATOL:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(m)) < -NORM_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _partial_trace(rho: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    t = rho.reshape((2,) * (2 * n))
    remaining = n
    for q in reversed(range(n)):
        if q in keep:
            continue
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    d = 1 << remaining
    return t.reshape(d, d)


def density_of(states, weights=None, keep=None) -> DensityMatrix:
    """Weighted mixture of pure states, reduced to the kept qubits.

    ``weights`` defaults to the uniform distribution; ``keep`` defaults to all
    qubits of the (common-size) input states.
    """
    states = list(states)
    if not states:
        raise ValueError("density_of needs at least one state")
    n = states[0].n_qubits
    if any(s.n_qubits != n for s in states):
        raise ValueError("all states must have the same qubit count")
    if weights is None:
        weights = [1.0 / len(states)] * len(states)
    weights = [float(w) for w in weights]
    if len(weights) != len(states):
        raise ValueError("one weight per state required")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > NORM_ATOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    if keep is None:
        keep = tuple(range(n))
    keep = tuple(sorted(set(int(q) for q in keep)))
    if any(not 0 <= q < n for q in keep) or not keep:
        raise ValueError(f"invalid kept qubit set {keep}")
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in zip(weights, states):
        rho += w * np.outer(s.amps, s.amps.conj())
    return DensityMatrix(_partial_trace(rho, n, keep))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of rho - sigma; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    eig = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(eig)))


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = PHASE_TOL) -> bool:
    """True iff |<a|b>| >= 1 - tol."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    return abs(np.vdot(a.amps, b.amps)) >= 1.0 - tol
