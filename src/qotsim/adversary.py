"""Attack models: eavesdropping on the channel and cheating insiders.

Covered strategies:
  * Eve's intercept-and-resend (random-basis measurement of every qubit);
  * Eve's entangling attack, coupling each transmitted qubit to a 4-dim
    ancilla via an isometry parameterized by (a, b, c, d, e00, e01, e10, e11);
  * dishonest Bob substituting halves of Bell pairs for his preparations and
    reading Alice's Pauli encoding out with a Bell measurement (dense coding);
  * dishonest Alice measuring Bob's sequence to guess his choices, then
    resending replacement states.

Eve's two attacks and Alice's measure-and-resend each take one transmitted
state and return the state forwarded in its place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import protocol, qsim
from .qsim import Basis, BellKind, PureState
from .protocol import (DECOY_STATES, ProtocolError, Role, SequenceSlot,
                       choice_basis, insert_decoys)

ISOMETRY_ATOL = 1e-9


class AttackScenario(Enum):
    INTERCEPT_RESEND = "intercept"
    ENTANGLING = "entangling"
    BOB_BELL_CHEAT = "bell"
    ALICE_MEASURE_RESEND = "alice"
    ALICE_MEASURE_RESEND_DUMMY = "alice-dummy"


@dataclass(frozen=True)
class UeParams:
    """Amplitudes and ancilla states of the per-qubit entangling isometry.

    The map sends |0>|E> -> a|0>|e00> + b|1>|e01> and
    |1>|E> -> c|0>|e10> + d|1>|e11>, with each e vector a unit vector in a
    4-dimensional ancilla space.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    e00: np.ndarray
    e01: np.ndarray
    e10: np.ndarray
    e11: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ProtocolError(f"amplitude {name} must be finite")
        for name in ("e00", "e01", "e10", "e11"):
            v = np.asarray(getattr(self, name), dtype=complex)
            if v.shape != (4,):
                raise ProtocolError(f"{name} must be a 4-dimensional vector")
            if not np.all(np.isfinite(v)):
                raise ProtocolError(f"{name} must have finite components")
            if abs(np.vdot(v, v).real - 1.0) > 1e-10:
                raise ProtocolError(f"{name} must be a unit vector")
            object.__setattr__(self, name, v)
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > 1e-10:
            raise ProtocolError("|a|^2 + |b|^2 must equal 1")
        if abs(abs(self.c) ** 2 + abs(self.d) ** 2 - 1.0) > 1e-10:
            raise ProtocolError("|c|^2 + |d|^2 must equal 1")
        # the two image vectors must be orthogonal for the map to be an isometry
        cross = (np.conj(self.a) * self.c * np.vdot(self.e00, self.e10)
                 + np.conj(self.b) * self.d * np.vdot(self.e01, self.e11))
        if abs(cross) > ISOMETRY_ATOL:
            raise ProtocolError(f"parameters do not define an isometry (cross term {abs(cross):.2e})")

    @classmethod
    def no_detection_point(cls) -> "UeParams":
        """The constrained parameters a=d=1, b=c=0, e00=e11 that evade detection."""
        e = np.array([1, 0, 0, 0], dtype=complex)
        return cls(1, 0, 0, 1, e, e.copy(), np.array([0, 1, 0, 0], dtype=complex), e.copy())

    def image_of_zero(self) -> np.ndarray:
        out = np.zeros(8, dtype=complex)
        out[:4] = self.a * self.e00
        out[4:] = self.b * self.e01
        return out

    def image_of_one(self) -> np.ndarray:
        out = np.zeros(8, dtype=complex)
        out[:4] = self.c * self.e10
        out[4:] = self.d * self.e11
        return out


def sample_ue_params(rng: np.random.Generator) -> UeParams:
    """Draw a uniformly random valid isometry (Haar via QR of a Gaussian matrix)."""
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    img0, img1 = q[:, 0], q[:, 1]  # images of |0>|E>, |1>|E> for |E> = first basis state

    def split(img):
        amp0, amp1 = np.linalg.norm(img[:4]), np.linalg.norm(img[4:])
        e_lo = img[:4] / amp0 if amp0 > 1e-12 else np.array([1, 0, 0, 0], dtype=complex)
        e_hi = img[4:] / amp1 if amp1 > 1e-12 else np.array([1, 0, 0, 0], dtype=complex)
        return complex(amp0), complex(amp1), e_lo, e_hi

    a, b, e00, e01 = split(img0)
    c, d, e10, e11 = split(img1)
    return UeParams(a, b, c, d, e00, e01, e10, e11)


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace(" ", ""))


def load_ue_params(path) -> UeParams:
    """Read entangling-attack parameters from a key=value text file.

    Scalars a..d are Python complex literals (e.g. ``0.6+0.8j``); each ancilla
    vector e00..e11 is four comma-separated complex components.
    """
    values = protocol.read_key_values(path)
    missing = [k for k in ("a", "b", "c", "d", "e00", "e01", "e10", "e11") if k not in values]
    if missing:
        raise ProtocolError(f"parameter file missing keys: {', '.join(missing)}")
    scalars = {k: _parse_complex(values[k]) for k in ("a", "b", "c", "d")}
    vectors = {k: np.array([_parse_complex(x) for x in values[k].split(",")], dtype=complex)
               for k in ("e00", "e01", "e10", "e11")}
    return UeParams(**scalars, **vectors)


def eve_intercept_resend(state: PureState, rng: np.random.Generator) -> PureState:
    """Measure an in-transit qubit in a uniformly random basis and forward the
    collapsed state."""
    _, collapsed = qsim.measure(state, choice_basis(rng.integers(2)), 0, rng)
    return collapsed


def eve_entangling_attack(state: PureState, params: UeParams) -> PureState:
    """Extend a single-qubit state with Eve's 4-dim ancilla per the isometry.

    The transmitted qubit stays tensor factor 0; Eve keeps factors 1-2.
    """
    if state.n_qubits != 1:
        raise ProtocolError("entangling attack applies to single-qubit states")
    alpha, beta = state.amps
    return PureState(alpha * params.image_of_zero() + beta * params.image_of_one())


def ue_detection_probability(params: UeParams) -> float:
    """Probability that a uniformly chosen decoy, measured in its preparation
    basis, yields the wrong bit after the entangling attack."""
    p_zero = abs(params.b) ** 2
    p_one = abs(params.c) ** 2
    # |-> component given |+> sent, and |+> component given |-> sent
    v_minus = (params.a * params.e00 - params.b * params.e01
               + params.c * params.e10 - params.d * params.e11) / 2.0
    v_plus = (params.a * params.e00 + params.b * params.e01
              - params.c * params.e10 - params.d * params.e11) / 2.0
    p_plus = float(np.vdot(v_minus, v_minus).real)
    p_minus = float(np.vdot(v_plus, v_plus).real)
    return (p_zero + p_one + p_plus + p_minus) / 4.0


def ue_leakage(params: UeParams) -> float:
    """Trace distance between Eve's reduced ancilla states for preparations
    |0> versus |+>; zero means the attack reveals nothing about Bob's choice."""

    def ancilla_density(weighted_branches):
        rho = np.zeros((4, 4), dtype=complex)
        for weight, branch in weighted_branches:
            rho += weight * np.outer(branch, branch.conj())
        return qsim.DensityMatrix(rho)

    rho_zero = ancilla_density([(1.0, params.a * params.e00),
                                (1.0, params.b * params.e01)])
    # the 1/sqrt(2) superposition weights are kept exact as 1/2 factors
    rho_plus = ancilla_density([(0.5, params.a * params.e00 + params.c * params.e10),
                                (0.5, params.b * params.e01 + params.d * params.e11)])
    return qsim.trace_distance(rho_zero, rho_plus)


def bob_bell_cheat(config, rng: np.random.Generator) -> tuple[list[SequenceSlot], list[int], list[int]]:
    """Step-1 replacement for a dishonest Bob: every non-decoy slot is his half
    of a fresh Bell pair (transmitted qubit = factor 0, kept half = factor 1)."""
    slots = []
    for i in range(config.N + 2 * config.K):
        role = Role.PAYLOAD if i < config.N else Role.LOYALTY
        slots.append(SequenceSlot(role, qsim.make_bell(BellKind.PHI_PLUS),
                                  payload_index=i if role is Role.PAYLOAD else None))
    return insert_decoys(slots, config.M, rng)


def random_published_bases(slots, rng: np.random.Generator) -> list[Basis]:
    """A cheating Bob's loyalty-test declarations: one uniformly random basis
    per slot (his Bell halves have no honest basis to publish)."""
    return [choice_basis(b) for b in rng.integers(0, 2, size=len(slots))]


#: dense-coding readout: which Bell state Alice's gate turns a Phi+ pair into
BELL_TO_PAIR: dict[BellKind, tuple[int, int]] = {
    BellKind.PHI_PLUS: (0, 0),
    BellKind.PHI_MINUS: (0, 1),
    BellKind.PSI_PLUS: (1, 0),
    BellKind.PSI_MINUS: (1, 1),
}


def bob_bell_cheat_readout(state: PureState) -> tuple[int, int]:
    """Recover Alice's message pair from the returned half + kept half."""
    return BELL_TO_PAIR[qsim.bell_measure(state)]


#: what a dishonest Alice resends after measuring; see alice_measure_resend
RESEND_POLICIES = ("guess", "collapsed", "random")


def alice_measure_resend(state: PureState, rng: np.random.Generator,
                         policy: str = "guess") -> tuple[int | None, PureState]:
    """Dishonest Alice measures one of Bob's Step-1 qubits in a random basis.

    Returns her choice guess and the state she resends. The guess is
    conclusive (not None) exactly when the outcome is impossible for one
    preparation: outcome |1> implies |+> was sent, outcome |-> implies |0> was
    sent. Resend policy:
      * ``guess`` (default): the identified preparation if conclusive, else a
        uniform draw from {|0>, |+>};
      * ``collapsed``: the post-measurement state;
      * ``random``: a uniform draw from the four decoy states.
    """
    if policy not in RESEND_POLICIES:
        raise ProtocolError(f"unknown resend policy {policy!r}")
    basis = choice_basis(rng.integers(2))
    bit, collapsed = qsim.measure(state, basis, 0, rng)
    guess = (1 if basis is Basis.Z else 0) if bit == 1 else None
    if policy == "collapsed":
        return guess, collapsed
    if policy == "random":
        return guess, DECOY_STATES[int(rng.integers(4))]
    return guess, protocol.choice_state(rng.integers(2) if guess is None else guess)
