"""Evidence fusion: conflict, Dempster's rule, Murphy's averaging rule, the
pignistic transform, and ranking.

The kernels work on each Bpa's tuple of slot masses in plain Python.
Dempster's rule walks every pair of focal slots and adds each product to
the slot of the pair's intersection.  Every sum they form is one
``math.fsum``, which is correctly rounded, so results do not depend on the
order of the focal sets and Dempster's rule is commutative bit for bit.

``brute_force_combine`` re-derives Dempster's rule by enumerating every
subset pair of the frame with no sparsity shortcuts; it exists purely as an
oracle for the focal-pair loop and must stay independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    EMPTY_SET,
    FRAME,
    SLOTS,
    SUBSETS,
    Bpa,
    Label,
    number,
    subsets_of,
    unit_normalized,
)
from .errors import EmptyInput, TotalConflict

#: 1 - k below this counts as total conflict
CONFLICT_EPS = 1e-12


@dataclass(frozen=True)
class CombinationResult:
    """A fused mass function plus the conflict mass it was normalized by."""

    bpa: Bpa
    conflict_k: float


def _conjunctive(m1: Bpa, m2: Bpa) -> list[float]:
    """Unnormalized conjunctive combination, one value per slot.

    Walks every pair of focal slots (mass > 0, which skips zero, negative
    and NaN slots) and puts the pair's product in the slot of its
    intersection ``a & b``; each slot is one correctly rounded ``fsum`` of
    its products, so the result does not depend on the order of the pairs.
    Slot 0 is the conflict k.
    """
    focal2 = [(b, y) for b, y in enumerate(m2.vector) if y > 0.0]
    products: list[list[float]] = [[] for _ in range(SLOTS)]
    for a, x in enumerate(m1.vector):
        if x > 0.0:
            for b, y in focal2:
                products[a & b].append(x * y)
    return [math.fsum(slot) for slot in products]


def conflict(m1: Bpa, m2: Bpa) -> float:
    """Total product mass on empty intersections; symmetric, in [0, 1]."""
    return _conjunctive(m1, m2)[0]


def dempster_combine(m1: Bpa, m2: Bpa) -> CombinationResult:
    """Dempster's rule: conjunctive combination normalized by 1 - k."""
    slots = _conjunctive(m1, m2)
    k = slots[0]
    if 1.0 - k <= CONFLICT_EPS:
        raise TotalConflict(f"total conflict (k = {k!r}); combination undefined",
                            conflict_k=k)
    masses = [0.0] + [m / (1.0 - k) for m in slots[1:]]
    return CombinationResult(bpa=unit_normalized(masses), conflict_k=k)


def brute_force_combine(m1: Bpa, m2: Bpa) -> CombinationResult:
    """Dempster's rule by exhaustive enumeration over all subset pairs.

    Test oracle: walks all 32 subsets of the frame on both sides,
    looking masses up with a zero default, and normalizes on its own.
    """
    universe = subsets_of()
    accumulated = {subset: 0.0 for subset in universe}
    for a in universe:
        for b in universe:
            accumulated[SUBSETS[a.bits & b.bits]] += m1.mass(a) * m2.mass(b)
    k = accumulated[EMPTY_SET]
    if 1.0 - k <= CONFLICT_EPS:
        raise TotalConflict(f"total conflict (k = {k!r}); combination undefined",
                            conflict_k=k)
    vector = [0.0] * SLOTS
    for subset in universe:
        if not subset.is_empty():
            vector[subset.bits] = accumulated[subset] / (1.0 - k)
    return CombinationResult(bpa=Bpa(vector), conflict_k=k)


def average_bpas(bpas: Sequence[Bpa]) -> Bpa:
    """Focal-set-wise arithmetic mean of several mass functions."""
    if len(bpas) == 0:
        raise EmptyInput("need at least one mass function to average")
    n = len(bpas)
    columns = zip(*(b.vector for b in bpas))
    return unit_normalized([math.fsum(m for m in column if m > 0.0) / n
                            for column in columns])


def murphy_combine(bpas: Sequence[Bpa]) -> CombinationResult:
    """Murphy's rule: average the inputs, then self-combine n - 1 times.

    A single input is returned unchanged with zero conflict.  Averaging
    makes the result invariant under input permutation, and for n identical
    inputs the rule reduces to plain Dempster combination of those inputs.
    The reported conflict is the k of the final self-combination step.
    """
    if len(bpas) == 0:
        raise EmptyInput("need at least one mass function to combine")
    if len(bpas) == 1:
        return CombinationResult(bpa=bpas[0], conflict_k=0.0)
    averaged = average_bpas(bpas)
    result = CombinationResult(bpa=averaged, conflict_k=0.0)
    for _ in range(len(bpas) - 1):
        result = dempster_combine(result.bpa, averaged)
    return result


def pignistic(b: Bpa) -> dict[Label, float]:
    """Spread each focal set's mass evenly over its members.

    The result is a probability over single grades (BetP), summing to 1.
    """
    shares = [(bits, mass / bits.bit_count())
              for bits, mass in enumerate(b.vector) if bits and mass > 0.0]
    return {label: math.fsum(share for bits, share in shares if bits >> label & 1)
            for label in FRAME}


@dataclass(frozen=True)
class RankingReport:
    """Ids ordered by descending value; rank 1 is the largest value."""

    entries: tuple[tuple[str, float, int], ...]
    top: str
    bottom: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "entries": [{"id": i, "value": v, "rank": r} for i, v, r in self.entries],
            "top": self.top,
            "bottom": self.bottom,
            "note": self.note,
        }


def rank(values: Mapping[str, float], note: str = "") -> RankingReport:
    """Rank ids by descending value.

    Tied ids keep their order in ``values``.  A value that is not a number
    by ``core.number``'s rule, or is NaN, raises ValueError, because it has
    no place in the order.
    """
    if len(values) == 0:
        raise EmptyInput("nothing to rank")
    numeric = {}
    for identifier, value in values.items():
        numeric[identifier] = number(value, ValueError, f"cannot rank {identifier!r}")
        if math.isnan(numeric[identifier]):
            raise ValueError(f"cannot rank {identifier!r}: its value is NaN")
    ordered = sorted(numeric.items(), key=lambda kv: -kv[1])
    entries = tuple((identifier, value, position + 1)
                    for position, (identifier, value) in enumerate(ordered))
    return RankingReport(entries=entries, top=entries[0][0], bottom=entries[-1][0],
                         note=note)
