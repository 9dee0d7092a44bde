"""Evidence fusion: conflict, Dempster's rule, Murphy's averaging rule, the
pignistic transform, and ranking.

The kernels work on each Bpa's slot vector.  Every sum they form is one
``math.fsum``, which is correctly rounded, so results do not depend on the
order of the focal sets and Dempster's rule is commutative bit for bit.

``brute_force_combine`` re-derives Dempster's rule by enumerating every
subset pair of the frame with no sparsity shortcuts; it exists purely as an
oracle for the optimized path and must stay independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    AND_TABLE,
    EMPTY_SET,
    FRAME,
    MASS_PRUNE_EPS,
    SLOTS,
    SUBSETS,
    Bpa,
    Label,
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


#: the outer product's (row, column) pairs grouped by the slot of their
#: intersection, and where each slot's group starts
_BY_TARGET = np.argsort(AND_TABLE.ravel(), kind="stable")
_ROWS, _COLS = np.divmod(_BY_TARGET, SLOTS)
_TARGET_STARTS = np.searchsorted(AND_TABLE.ravel()[_BY_TARGET], np.arange(SLOTS))
#: per grade, the slots whose subsets hold it, and those subsets' sizes
_MEMBER_SLOTS = np.array([[bits for bits in range(SLOTS) if bits >> int(label) & 1]
                          for label in FRAME])
_MEMBER_SIZES = np.array([[len(SUBSETS[bits]) for bits in row] for row in _MEMBER_SLOTS],
                         dtype=float)


def _conjunctive(m1: Bpa, m2: Bpa) -> list[float]:
    """Unnormalized conjunctive combination, one value per slot.

    Each focal pair's product goes to the slot of its intersection; each
    slot is one correctly rounded ``fsum`` of its products, so the result
    does not depend on the order of the pairs.  Slot 0 is the conflict k.
    """
    products = np.maximum(m1.vector, 0.0)[_ROWS] * np.maximum(m2.vector, 0.0)[_COLS]
    # drops every pair with a non-focal side: products of 0, and nan
    keep = products > 0.0
    counts = np.add.reduceat(keep, _TARGET_STARTS, dtype=np.intp).tolist()
    values = products[keep].tolist()
    sums = []
    start = 0
    for count in counts:
        end = start + count
        sums.append(math.fsum(values[start:end]) if count else 0.0)
        start = end
    return sums


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
    masses = [0.0] * SLOTS
    for bits in range(1, SLOTS):
        value = slots[bits] / (1.0 - k)
        if value >= MASS_PRUNE_EPS:
            masses[bits] = value
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
            accumulated[a & b] += m1.mass(a) * m2.mass(b)
    k = accumulated[EMPTY_SET]
    if 1.0 - k <= CONFLICT_EPS:
        raise TotalConflict(f"total conflict (k = {k!r}); combination undefined",
                            conflict_k=k)
    vector = np.zeros(SLOTS)
    for subset in universe:
        if not subset.is_empty():
            vector[subset.bits] = accumulated[subset] / (1.0 - k)
    return CombinationResult(bpa=Bpa(vector), conflict_k=k)


def average_bpas(bpas: Sequence[Bpa]) -> Bpa:
    """Focal-set-wise arithmetic mean of several mass functions."""
    if len(bpas) == 0:
        raise EmptyInput("need at least one mass function to average")
    stacked = np.array([b.vector for b in bpas])
    columns = np.where(stacked > 0.0, stacked, 0.0).T.tolist()
    n = len(bpas)
    means = [math.fsum(column) / n for column in columns]
    return unit_normalized(means)


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
    positive = np.where(b.vector > 0.0, b.vector, 0.0)
    shares = (positive[_MEMBER_SLOTS] / _MEMBER_SIZES).tolist()
    return {label: math.fsum(row) for label, row in zip(FRAME, shares)}


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

    Tied ids keep their order in ``values``.  A NaN value raises
    ValueError, because it has no place in the order.
    """
    if len(values) == 0:
        raise EmptyInput("nothing to rank")
    for identifier, value in values.items():
        if math.isnan(value):
            raise ValueError(f"cannot rank {identifier!r}: its value is NaN")
    ordered = sorted(values.items(), key=lambda kv: -kv[1])
    entries = tuple((identifier, float(value), position + 1)
                    for position, (identifier, value) in enumerate(ordered))
    return RankingReport(entries=entries, top=entries[0][0], bottom=entries[-1][0],
                         note=note)
