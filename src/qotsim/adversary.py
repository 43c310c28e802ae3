"""Attack models: eavesdropping on the channel and cheating insiders.

Covered strategies:
  * measure-and-resend (:func:`alice_measure_resend`): a dishonest Alice
    measuring Bob's sequence to guess his choices, then resending
    replacement states; Eve's intercept-and-resend, a random-basis
    measurement of every qubit, is its ``collapsed`` policy;
  * Eve's entangling attack, coupling each transmitted qubit to a 4-dim
    ancilla via an isometry parameterized by (a, b, c, d, e00, e01, e10, e11);
  * dishonest Bob substituting halves of Bell pairs for his preparations and
    reading Alice's Pauli encoding out with a Bell measurement (dense coding).

Measure-and-resend and the entangling attack each take a ``(T, 2)`` block of
transmitted single-qubit states, one per row, and return the block forwarded
in its place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import protocol, qsim
from .protocol import DECOY_AMPS, ProtocolError, SequenceSlot

ISOMETRY_ATOL = 1e-9


class AttackScenario(Enum):
    INTERCEPT_RESEND = "intercept"
    ENTANGLING = "entangling"
    BOB_BELL_CHEAT = "bell"
    ALICE_MEASURE_RESEND = "alice"
    ALICE_MEASURE_RESEND_DUMMY = "alice-dummy"


@dataclass(frozen=True, eq=False)  # array fields: == is identity, so hash() works
class UeParams:
    """Amplitudes and ancilla states of the per-qubit entangling isometry.

    The map sends |0>|E> -> a|0>|e00> + b|1>|e01> and
    |1>|E> -> c|0>|e10> + d|1>|e11>, with each e vector a unit vector in a
    4-dimensional ancilla space; each is stored as a read-only copy. The map
    itself is ``images``, a read-only ``(2, 8)`` array built once from them:
    row k is the image of |k>|E>, ``[a*e00, b*e01]`` and ``[c*e10, d*e11]``.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    e00: np.ndarray
    e01: np.ndarray
    e10: np.ndarray
    e11: np.ndarray
    images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ProtocolError(f"amplitude {name} must be finite")
        for name in ("e00", "e01", "e10", "e11"):
            v = np.array(getattr(self, name), dtype=complex)
            if v.shape != (4,):
                raise ProtocolError(f"{name} must be a 4-dimensional vector")
            if not np.all(np.isfinite(v)):
                raise ProtocolError(f"{name} must have finite components")
            if abs(np.vdot(v, v).real - 1.0) > qsim.NORM_ATOL:
                raise ProtocolError(f"{name} must be a unit vector")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > qsim.NORM_ATOL:
            raise ProtocolError("|a|^2 + |b|^2 must equal 1")
        if abs(abs(self.c) ** 2 + abs(self.d) ** 2 - 1.0) > qsim.NORM_ATOL:
            raise ProtocolError("|c|^2 + |d|^2 must equal 1")
        images = np.array([[self.a * self.e00, self.b * self.e01],
                           [self.c * self.e10, self.d * self.e11]]).reshape(2, 8)
        images.flags.writeable = False
        object.__setattr__(self, "images", images)
        # the two image vectors must be orthogonal for the map to be an isometry
        cross = np.vdot(images[0], images[1])
        if abs(cross) > ISOMETRY_ATOL:
            raise ProtocolError(f"parameters do not define an isometry (cross term {abs(cross):.2e})")

    @classmethod
    def no_detection_point(cls) -> "UeParams":
        """The constrained parameters a=d=1, b=c=0, e00=e11 that evade detection."""
        e = np.array([1, 0, 0, 0], dtype=complex)
        return cls(1, 0, 0, 1, e, e, np.array([0, 1, 0, 0], dtype=complex), e)


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


def load_ue_params(path) -> UeParams:
    """Read entangling-attack parameters from a key=value text file.

    Scalars a..d are Python complex literals (e.g. ``0.6+0.8j``); each ancilla
    vector e00..e11 is four comma-separated complex components.
    """
    values = protocol.read_key_values(path)
    missing = [k for k in ("a", "b", "c", "d", "e00", "e01", "e10", "e11") if k not in values]
    if missing:
        raise ProtocolError(f"parameter file missing keys: {', '.join(missing)}")

    def parse(key: str, text: str) -> complex:
        try:
            return complex(text.strip().replace(" ", ""))
        except ValueError:
            raise ProtocolError(f"{path}: {key}: malformed complex literal {text.strip()!r}") from None

    scalars = {k: parse(k, values[k]) for k in ("a", "b", "c", "d")}
    vectors = {k: np.array([parse(k, x) for x in values[k].split(",")], dtype=complex)
               for k in ("e00", "e01", "e10", "e11")}
    return UeParams(**scalars, **vectors)


def eve_entangling_attack(states: np.ndarray, params: UeParams) -> np.ndarray:
    """Extend each single-qubit row of a ``(T, 2)`` block with Eve's 4-dim
    ancilla per the isometry, giving a ``(T, 8)`` block.

    The transmitted qubit stays tensor factor 0; Eve keeps factors 1-2.
    """
    if states.ndim != 2 or states.shape[1] != 2:
        raise ProtocolError("entangling attack applies to single-qubit states")
    return states[:, :1] * params.images[0] + states[:, 1:] * params.images[1]


def ue_detection_probability(params: UeParams) -> float:
    """Probability that a uniformly chosen decoy, measured in its preparation
    basis, yields the wrong bit after the entangling attack."""
    (ae, be), (ce, de) = params.images.reshape(2, 2, 4)
    # |-> component given |+> sent, and |+> component given |-> sent
    v_minus = (ae - be + ce - de) / 2.0
    v_plus = (ae + be - ce - de) / 2.0
    p_plus = float(np.vdot(v_minus, v_minus).real)
    p_minus = float(np.vdot(v_plus, v_plus).real)
    return (abs(params.b) ** 2 + abs(params.c) ** 2 + p_plus + p_minus) / 4.0


def ue_leakage(params: UeParams) -> float:
    """Trace distance between Eve's reduced ancilla states for preparations
    |0> versus |+>; zero means the attack reveals nothing about Bob's choice."""
    img0, img1 = params.images
    rho_zero, rho_plus = (sum(np.outer(half, half.conj()) for half in image.reshape(2, 4))
                          for image in (img0, img0 + img1))
    # the 1/sqrt(2) superposition weights are kept exact as a 1/2 factor
    return qsim.trace_distance(rho_zero, 0.5 * rho_plus)


#: every slot of a cheating Bob: the Phi+ pair whose factor 0 he transmits
BELL_SLOT = qsim.make_bell(0)


def bob_bell_cheat(config, rng: np.random.Generator) -> tuple[list[SequenceSlot], list[int], list[int]]:
    """Step-1 replacement for a dishonest Bob: every non-decoy slot is his
    :data:`BELL_SLOT`, recorded with the choice he will declare for it if
    tested: uniformly random, as a Bell half has none."""
    declared = rng.integers(2, size=config.N + 2 * config.K)
    slots = [SequenceSlot(BELL_SLOT, choice=int(c), payload_index=i if i < config.N else None)
             for i, c in enumerate(declared)]
    return protocol.insert_decoys(slots, config.M, rng)


def bob_bell_cheat_readout(state: np.ndarray) -> tuple[int, int]:
    """Recover Alice's message pair from the returned half + kept half: her
    gate X^m0 then Z^m1 turns the Phi+ pair into Bell state 2 * m0 + m1."""
    return divmod(qsim.bell_measure(state), 2)


#: what a dishonest Alice resends after measuring; see alice_measure_resend
RESEND_POLICIES = ("guess", "collapsed", "random")
#: the number of values of each policy's resend draw; ``collapsed`` makes none
RESEND_DRAWS = {"guess": 2, "random": len(DECOY_AMPS)}


def alice_measure_resend(states: np.ndarray, basis: np.ndarray, u: np.ndarray,
                         resend: np.ndarray | None, policy: str = "guess") -> tuple[np.ndarray, np.ndarray]:
    """Measure each row of a ``(T, 2)`` block of single-qubit states, row t
    in the X basis where ``basis[t]`` is set, else in Z, reading ``u[t]`` as
    :func:`qsim.measure_batch` does, and resend a state per ``policy``.

    Returns the choice guesses (-1 where inconclusive) and the block
    resent. For Bob's Step-1 qubits, outcome 0 is choice a's preparation
    (decoy id 2a); outcome 1 rules a out, so a guess is conclusive exactly
    then, and names 1 - a: outcome |1> implies |+> was sent, outcome |->
    implies |0> was sent. Resend policy, reading ``resend[t]``, row t's draw
    of :data:`RESEND_DRAWS` values:
      * ``guess`` (default): the identified preparation if conclusive, else
        the preparation of choice ``resend[t]``;
      * ``collapsed``: the post-measurement state (``resend`` is not read),
        which is Eve's intercept-and-resend;
      * ``random``: decoy state ``resend[t]``.
    The caller draws ``basis``, ``u`` and ``resend``: for either attack, a
    uniformly random basis bit, a uniform in [0, 1) and a uniform resend
    draw per row.
    """
    if policy not in RESEND_POLICIES:
        raise ProtocolError(f"unknown resend policy {policy!r}")
    bits, collapsed = qsim.measure_batch(states, basis, u)
    guesses = np.where(bits, 1 - basis, -1)
    if policy == "collapsed":
        return guesses, collapsed
    resent = resend if policy == "random" else 2 * np.where(bits, guesses, resend)
    return guesses, DECOY_AMPS.take(resent, axis=0)
