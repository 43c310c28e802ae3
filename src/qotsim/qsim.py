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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: tolerance for algebraic identities (unitarity, hermiticity)
ALGEBRA_ATOL = 1e-12
#: tolerance for state normalization
NORM_ATOL = 1e-10
#: tolerance for global-phase comparison
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
        # the rank is checked before the length is read, and the length before it is shifted
        n = amps.shape[0].bit_length() - 1 if amps.ndim == 1 else 0
        if not 1 <= n <= MAX_QUBITS or amps.shape != (1 << n,):
            raise ValueError(f"amplitudes of shape {amps.shape} are not a 1..{MAX_QUBITS} qubit register")
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
EIGENSTATES = np.array([ZERO.amps, ONE.amps, PLUS.amps, MINUS.amps])


def _project(amps: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """Qubit 0 of each amplitude row (last axis of ``amps``) projected onto
    the real single-qubit ``bras`` (last axis), broadcast: the amplitudes of
    the rest of the register. The one projection behind every gate and
    measurement below, column arithmetic on a row's two halves."""
    half = amps.shape[-1] // 2
    return bras[..., :1] * amps[..., :half] + bras[..., 1:] * amps[..., half:]


def apply_batch(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply ``mats[t]`` (a ``(T, 2, 2)`` stack, or one ``(2, 2)`` matrix for
    every row) to qubit 0 of row t of a ``(T, 2^n)`` amplitude block."""
    return _project(amps[:, None, :], mats).reshape(amps.shape)


def apply_gate(state: PureState, gate: str, target: int) -> PureState:
    """Apply one of the named 2x2 gates to the target qubit."""
    if not 0 <= target < state.n_qubits:
        raise IndexError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")
    rows = state.amps.reshape(1 << target, -1)  # each row begins with the target
    return PureState(apply_batch(rows, GATES[gate]).reshape(-1), _checked=True)


def probability_of_one(amps: np.ndarray, x_basis) -> np.ndarray:
    """Born probability that qubit 0 of each row of a ``(T, 2^n)`` block
    reads 1: the squared norm of its projection onto |1> (Z basis) or |->
    (``x_basis``, a bool per row). Nothing is collapsed."""
    return np.square(np.abs(_project(amps, EIGENSTATES[2 * x_basis + 1]))).sum(axis=1)


def measure(state: PureState, basis: Basis, target: int, rng: np.random.Generator) -> tuple[int, PureState]:
    """Projective measurement of one qubit; returns (bit, collapsed state).

    The target factor is projected onto both eigenstates of the basis. The
    bit is 1 iff ``rng.random()`` is below the outcome-1 projection's squared
    norm, the float :func:`probability_of_one` gives; the collapsed state is
    the measured eigenstate on the target factor times the renormalised
    projection onto it.
    """
    if not 0 <= target < state.n_qubits:
        raise IndexError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")
    pair = EIGENSTATES[2:] if basis is Basis.X else EIGENSTATES[:2]
    proj = _project(state.amps.reshape(1 << target, 1, -1), pair)  # rows begin with the target
    p1 = float(np.square(np.abs(proj[:, 1])).sum())
    bit = 1 if rng.random() < p1 else 0
    rest = proj[:, bit] / math.sqrt(p1 if bit else 1.0 - p1)
    return bit, PureState((rest[:, None, :] * pair[bit][:, None]).reshape(-1), _checked=True)


def measure_batch(amps: np.ndarray, x_basis: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure qubit 0 of every row of a ``(T, 2^n)`` amplitude block.

    Row t is measured in the X basis where ``x_basis[t]`` is set, else in the
    Z basis, and reads 1 iff ``u[t]`` is below its :func:`probability_of_one`,
    as :func:`measure` reads its ``rng.random()``. Returns the bits (bool,
    shape ``(T,)``) and the block with each row collapsed as :func:`measure`
    collapses a state.
    """
    p1 = probability_of_one(amps, x_basis)
    bits = u < p1
    eigen = EIGENSTATES[2 * x_basis + bits]
    rest = _project(amps, eigen) / np.sqrt(np.where(bits, p1, 1.0 - p1))[:, None]
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


def bell_measure(state: PureState) -> BellKind:
    """Identify which Bell state a two-qubit register is in (up to global phase).

    A qubit swap maps each Bell state to itself up to a sign, so the answer
    does not depend on qubit order. Only full two-qubit registers are
    supported; the protocol never needs a Bell measurement in a larger one.
    """
    if state.n_qubits != 2:
        raise ValueError("bell_measure requires a two-qubit state")
    for kind, bell in _BELL_AMPS.items():
        if abs(np.vdot(bell, state.amps)) >= 1.0 - NORM_ATOL:
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


def equal_up_to_global_phase(a: PureState, b: PureState) -> bool:
    """True iff |<a|b>| >= 1 - PHASE_TOL."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    return abs(np.vdot(a.amps, b.amps)) >= 1.0 - PHASE_TOL
