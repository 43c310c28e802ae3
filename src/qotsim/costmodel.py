"""Quantum-cost formulas for the compared oblivious transfer protocols.

Each protocol's total consumption for R received bits is affine in R. The
published table lists the YSW decoy budget as 2x50 while its total column says
4R+50; the total column is taken as authoritative (the R>=30 crossover is
consistent with it) and the discrepancy is surfaced as a footnote.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum


class ProtocolId(Enum):
    """The compared protocols, in the order of the cost curve's columns."""

    YANG2013 = "yang"
    YSW2015 = "ysw"
    YYLSZ2015 = "yylsz"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class ProtocolCost:
    qubits_per_message: int
    transmissions: int
    decoy_qubits: int
    loyalty_qubits: int

    def total(self, R: int) -> int:
        return self.qubits_per_message * R + self.decoy_qubits + self.loyalty_qubits


TABLE: dict[ProtocolId, ProtocolCost] = {
    ProtocolId.YANG2013: ProtocolCost(4, 1, 50, 0),
    ProtocolId.YSW2015: ProtocolCost(4, 1, 50, 0),
    ProtocolId.YYLSZ2015: ProtocolCost(4, 2, 2 * 50, 0),
    ProtocolId.PROPOSED: ProtocolCost(1, 2, 2 * 50, 2 * 20),
}

CROSSOVER_LIMIT = 10_000

YSW_FOOTNOTE = ("ysw: table lists 2x50 decoy qubits but a 4R+50 total; "
                "the total-cost column is used here")


def total_cost(protocol_id: ProtocolId, R: int) -> int:
    """Total quantum consumption for R received bits."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    return TABLE[protocol_id].total(R)


def crossover() -> int:
    """Smallest R at which the proposed protocol is at least as cheap as every
    alternative (and stays so, since it has the smallest slope)."""
    others = [p for p in ProtocolId if p is not ProtocolId.PROPOSED]
    for R in range(CROSSOVER_LIMIT + 1):
        if all(total_cost(ProtocolId.PROPOSED, R) <= total_cost(o, R) for o in others):
            return R
    raise RuntimeError("no crossover found within limit")


CURVE_HEADER = ",".join(["R", *(p.value for p in ProtocolId)])


def emit_curve(r_max: int) -> Iterator[tuple[int, ...]]:
    """Cost rows (R, then each protocol's total in ProtocolId order, as in
    CURVE_HEADER) for R = 1..r_max, yielded one at a time so that a long
    curve is never held in memory; ``r_max`` is checked at the call."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    return ((R, *(total_cost(p, R) for p in ProtocolId)) for R in range(1, r_max + 1))
