"""Minimal pure-state simulator for one to three qubits.

A register is a 1-D complex row of 2^n unit-norm amplitudes; registers, Bell
states and density matrices are all plain arrays. Every gate and measurement
acts on qubit 0, the transmitted qubit of a protocol slot. :func:`measure` and
:func:`apply_gate` are the one-row case of the block functions, memoized by a
register's bytes read back as complex, so both reject a row of any other dtype.

Conventions:
  * qubit 0 is the leftmost tensor factor (most significant amplitude index bit);
  * a Pauli gate is named by the code c = 2 * m0 + m1 of the message pair it
    encodes: ``PAULIS[c]`` is Z^m1 X^m0, so I, Z, X and Y, the real matrix
    [[0, 1], [-1, 0]] (= ZX), with Y|0> = -|1>;
  * a basis is named by the bit ``x_basis`` (0 for Z, 1 for X); Z-basis outcomes
    map |0> -> 0, |1> -> 1 and X-basis outcomes map |+> -> 0, |-> -> 1, so the
    eigenstate of outcome ``bit`` is ``EIGENSTATES[2 * x_basis + bit]``;
  * a Bell state is named by b = 2 * [the two qubits differ] + [minus sign]:
    0 -> Phi+, 1 -> Phi-, 2 -> Psi+, 3 -> Psi-. Pauli gate c on either qubit
    of Phi+ gives Bell state c;
  * a density matrix is a square complex array.

All operations are pure functions of their arguments. A measurement takes
its uniform draw u in [0, 1) from the caller, who owns the random stream, so
runs are replayable and no function here takes a Generator. :func:`measure`
reads only a bit; :func:`measure_batch` is the one function that collapses
registers. Every register :func:`apply_gate` returns, and every one this
module defines, is read-only, so registers can be shared.
"""

from __future__ import annotations

import functools

import numpy as np

#: tolerance for state normalization
NORM_ATOL = 1e-10

#: distinct (register, basis) Born probabilities :func:`measure` keeps, and
#: distinct (register, Pauli code) results :func:`apply_gate` keeps;
#: bounds memory when many random registers pass through either
OUTCOME_CACHE = 256

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
#: the one dtype a register may have: the memos read its bytes back as complex
_COMPLEX = np.dtype(complex)

#: the Pauli gates I, Z, X and the real Y (= ZX), indexed by code 2 * m0 + m1
PAULIS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
                  dtype=complex)
PAULIS.flags.writeable = False

#: qubit-0 outcome eigenstates as rows, indexed 2 * (X basis) + bit
EIGENSTATES = np.array([[1, 0], [0, 1], [_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
                       dtype=complex)
EIGENSTATES.flags.writeable = False
# single-qubit constants, read-only views of the table
ZERO, ONE, PLUS, MINUS = EIGENSTATES
#: the outcome-0 eigenstates |0> and |+>, and the outcome-1 eigenstates |1>
#: and |->, read-only views indexed by x_basis
_ZERO_BRAS, _ONE_BRAS = EIGENSTATES[0::2], EIGENSTATES[1::2]


def _key(amps: np.ndarray) -> bytes:
    """A register's memo key: its amplitude bytes, which the memos read back
    as complex, so a row of any other dtype raises."""
    if amps.dtype != _COMPLEX:
        raise TypeError(f"a register must be a complex row, not {amps.dtype}")
    return amps.tobytes()


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


@functools.lru_cache(maxsize=OUTCOME_CACHE, typed=True)
def _gated(amps_bytes: bytes, code: int) -> np.ndarray:
    """The read-only register with these amplitude bytes after Pauli gate ``code`` on qubit 0."""
    if type(code) is not int or not 0 <= code <= 3:  # the memo is typed, so True or 1.0 gets here
        raise ValueError(f"a Pauli code must be an int from 0 to 3, got {code!r}")
    out = apply_batch(np.frombuffer(amps_bytes, complex)[None], PAULIS[code])[0]
    out.flags.writeable = False
    return out


def apply_gate(amps: np.ndarray, code: int) -> np.ndarray:
    """Apply Pauli gate ``code``, ``PAULIS[code]``, to qubit 0 of a register; returns
    a read-only register, computed once per register and code and shared. A code
    that is not an int from 0 to 3 (a bool included) is a ValueError."""
    return _gated(_key(amps), code)


def probability_of_one(amps: np.ndarray, x_basis) -> np.ndarray:
    """Born probability that qubit 0 of each row of a ``(T, 2^n)`` block
    reads 1: p1 / (p0 + p1), with p1 the squared norm of its projection onto
    |1> (Z basis) or |-> (``x_basis``, a bool per row) and p0 that onto |0>
    or |+>. Dividing by the sum makes it exactly 0, 1/2 or 1 on the
    eigenstates, where 1/sqrt(2) squared alone is not. Nothing is collapsed."""
    p0, p1 = (np.square(np.abs(_project(amps, bras.take(x_basis, axis=0)))).sum(axis=1)
              for bras in (_ZERO_BRAS, _ONE_BRAS))
    return p1 / (p0 + p1)


@functools.lru_cache(maxsize=OUTCOME_CACHE)
def _born(amps_bytes: bytes, x_basis: bool) -> float:
    """:func:`probability_of_one` of the register with these amplitude bytes."""
    return float(probability_of_one(np.frombuffer(amps_bytes, complex)[None], x_basis)[0])


def measure(amps: np.ndarray, x_basis, u: float) -> int:
    """The bit (an int) read by measuring qubit 0 of a register in the X basis
    if ``x_basis`` is set, else the Z basis: 1 iff the uniform ``u`` (in [0, 1),
    drawn by the caller) is below its :func:`probability_of_one`, computed once
    per register and basis and shared. Nothing is collapsed."""
    return 1 if u < _born(_key(amps), bool(x_basis)) else 0


def measure_batch(amps: np.ndarray, x_basis: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure qubit 0 of every row of a ``(T, 2^n)`` amplitude block.

    Row t is measured in the X basis where ``x_basis[t]`` is set, else in the
    Z basis, and reads 1 iff ``u[t]`` is below its :func:`probability_of_one`.
    Returns the bits (bool, shape ``(T,)``) and the block with each row
    collapsed: the measured eigenstate on qubit 0 times the renormalised
    projection onto it, of the shape of ``amps`` (a block of no rows too).
    """
    p1 = probability_of_one(amps, x_basis)
    bits = u < p1
    eigen = EIGENSTATES.take(2 * x_basis + bits, axis=0)
    rest = _project(amps, eigen) / np.sqrt(np.where(bits, p1, 1.0 - p1))[:, None]
    return bits, (eigen[:, :, None] * rest[:, None, :]).reshape(amps.shape)


#: the Bell states as rows, indexed 2 * [the two qubits differ] + [minus sign]
_BELL_AMPS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                      dtype=complex) * _INV_SQRT2
_BELL_AMPS.flags.writeable = False


def make_bell(b: int) -> np.ndarray:
    """Bell state ``b`` (Phi+, Phi-, Psi+, Psi- for 0 to 3), shared and read-only."""
    return _BELL_AMPS[b]


def bell_measure(amps: np.ndarray) -> int:
    """The index b of the Bell state a two-qubit register is in (up to
    global phase).

    A qubit swap maps each Bell state to itself up to a sign, so the answer
    does not depend on qubit order. Only full two-qubit registers are
    supported; the protocol never needs a Bell measurement in a larger one.
    """
    if amps.shape != (4,):
        raise ValueError("bell_measure requires a two-qubit state")
    for b, bell in enumerate(_BELL_AMPS):
        if abs(np.vdot(bell, amps)) >= 1.0 - NORM_ATOL:
            return b
    raise ValueError("state is not within tolerance of any Bell state")


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of |eigenvalues| of rho - sigma, two density matrices of
    one dimension; lies in [0, 1]."""
    eig = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(eig)))
