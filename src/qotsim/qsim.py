"""Minimal pure-state simulator for one to three qubits.

A register is a 1-D complex row of 2^n unit-norm amplitudes. The memos key
a register by its bytes and read them as complex, so a float row is misread.

Conventions:
  * qubit 0 is the leftmost tensor factor (most significant amplitude index bit);
  * the Y gate is the real matrix [[0, 1], [-1, 0]] (= ZX), so Y|0> = -|1>;
  * a basis is named by the bit ``x_basis`` (0 for Z, 1 for X); Z-basis outcomes
    map |0> -> 0, |1> -> 1 and X-basis outcomes map |+> -> 0, |-> -> 1, so the
    eigenstate of outcome ``bit`` is ``EIGENSTATES[2 * x_basis + bit]``.

All operations are pure functions of (register, rng). Every register they
return, and every one this module defines, is read-only, so registers and
their measurement outcomes can be shared. Probabilistic operations take an
explicit numpy Generator so runs are replayable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: tolerance for algebraic identities (unitarity, hermiticity)
ALGEBRA_ATOL = 1e-12
#: tolerance for state normalization
NORM_ATOL = 1e-10

#: distinct (register, basis, target) measurements whose outcomes
#: :func:`measure` keeps; bounds memory when many random registers are measured
OUTCOME_CACHE = 256

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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

#: qubit-0 outcome eigenstates as rows, indexed 2 * (X basis) + bit
EIGENSTATES = np.array([[1, 0], [0, 1], [_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
                       dtype=complex)
EIGENSTATES.flags.writeable = False
# single-qubit constants, read-only views of the table
ZERO, ONE, PLUS, MINUS = EIGENSTATES


def _check_target(amps: np.ndarray, target: int) -> None:
    n = len(amps).bit_length() - 1
    if not 0 <= target < n:
        raise IndexError(f"target qubit {target} out of range for {n}-qubit register")


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


def apply_gate(amps: np.ndarray, gate: str, target: int) -> np.ndarray:
    """Apply one of the named 2x2 gates to the target qubit of a register;
    returns a new read-only register."""
    _check_target(amps, target)
    rows = amps.reshape(1 << target, -1)  # each row begins with the target
    out = apply_batch(rows, GATES[gate]).reshape(-1)
    out.flags.writeable = False
    return out


def probability_of_one(amps: np.ndarray, x_basis) -> np.ndarray:
    """Born probability that qubit 0 of each row of a ``(T, 2^n)`` block
    reads 1: the squared norm of its projection onto |1> (Z basis) or |->
    (``x_basis``, a bool per row). Nothing is collapsed."""
    return np.square(np.abs(_project(amps, EIGENSTATES[2 * x_basis + 1]))).sum(axis=1)


@functools.lru_cache(maxsize=OUTCOME_CACHE)
def _born(amps_bytes: bytes, x_basis: bool, target: int) -> tuple[float, np.ndarray]:
    """The Born probability of reading 1 on the target of the register with
    these amplitude bytes, and the target factor's projection onto both
    eigenstates of the basis (indexed by bit). A target outside the register
    raises before anything is projected; ``lru_cache`` caches no exception."""
    amps = np.frombuffer(amps_bytes, complex)
    _check_target(amps, target)
    pair = EIGENSTATES[2 * x_basis:2 * x_basis + 2]
    proj = _project(amps.reshape(1 << target, 1, -1), pair)  # rows begin with the target
    return float(np.square(np.abs(proj[:, 1])).sum()), proj


@functools.lru_cache(maxsize=OUTCOME_CACHE)
def _collapsed(amps_bytes: bytes, x_basis: bool, target: int, bit: int) -> np.ndarray:
    """The read-only register after reading ``bit``: the measured eigenstate
    on the target factor times the renormalised projection onto it."""
    p1, proj = _born(amps_bytes, x_basis, target)
    rest = proj[:, bit] / math.sqrt(p1 if bit else 1.0 - p1)
    eigen = EIGENSTATES[2 * x_basis + bit]
    out = (rest[:, None, :] * eigen[:, None]).reshape(-1)
    out.flags.writeable = False
    return out


def measure(amps: np.ndarray, x_basis, target: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Projective measurement of one qubit of a register in the X basis if
    ``x_basis`` is set, else the Z basis; returns (bit, collapsed register).
    The scalar reference the block functions below are tested against.

    The target factor is projected onto both eigenstates of the basis. The
    bit is 1 iff ``rng.random()`` is below the outcome-1 projection's squared
    norm, the float :func:`probability_of_one` gives; the collapsed state is
    the measured eigenstate on the target factor times the renormalised
    projection onto it. Both are computed once per register, basis and
    target, keyed by the amplitude bytes, and shared by later calls; each
    call still draws its own uniform.
    """
    key = (amps.tobytes(), bool(x_basis), target)
    bit = 1 if _born(*key)[0] > rng.random() else 0  # a bad target raises before the draw
    return bit, _collapsed(*key, bit)


def measure_batch(amps: np.ndarray, x_basis: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure qubit 0 of every row of a ``(T, 2^n)`` amplitude block.

    Row t is measured in the X basis where ``x_basis[t]`` is set, else in the
    Z basis, and reads 1 iff ``u[t]`` is below its :func:`probability_of_one`,
    as :func:`measure` reads its ``rng.random()``. Returns the bits (bool,
    shape ``(T,)``) and the block with each row collapsed as :func:`measure`
    collapses a register.
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
# every call that applies a gate or names a Bell state shares these arrays
for _shared in (*GATES.values(), *_BELL_AMPS.values()):
    _shared.flags.writeable = False


def make_bell(kind: BellKind) -> np.ndarray:
    """One of the four maximally entangled two-qubit states, shared and read-only."""
    return _BELL_AMPS[kind]


def bell_measure(amps: np.ndarray) -> BellKind:
    """Identify which Bell state a two-qubit register is in (up to global phase).

    A qubit swap maps each Bell state to itself up to a sign, so the answer
    does not depend on qubit order. Only full two-qubit registers are
    supported; the protocol never needs a Bell measurement in a larger one.
    """
    if amps.shape != (4,):
        raise ValueError("bell_measure requires a two-qubit state")
    for kind, bell in _BELL_AMPS.items():
        if abs(np.vdot(bell, amps)) >= 1.0 - NORM_ATOL:
            return kind
    raise ValueError("state is not within tolerance of any Bell state")


@dataclass(frozen=True, eq=False)  # array fields: == is identity, so hash() works
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix; ``entries`` is a
    read-only copy of the input."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > ALGEBRA_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > NORM_ATOL:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(m)) < -NORM_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of rho - sigma; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    eig = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(eig)))
