"""Linguistic membership functions over the 0..10 score scale and the
construction of mass functions from memberships.

Each grade peaks at 0, 2.5, 5, 7.5, or 10 and falls off linearly with
slope 0.4, so at any score at most two adjacent grades are active and the
memberships always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FRAME, FULL_SET, SLOTS, Bpa, Label, unit_normalized
from .errors import DiscountOutOfRange, ScoreOutOfRange

SCORE_MIN = 0.0
SCORE_MAX = 10.0
SLOPE = 0.4

#: score at which each grade's membership is exactly 1
GRADE_PEAKS: dict[Label, float] = {
    Label.VL: 0.0, Label.L: 2.5, Label.M: 5.0, Label.H: 7.5, Label.VH: 10.0,
}

OVERLAP_ADJACENT = "adjacent"
OVERLAP_THETA = "theta"
OVERLAP_MODES = (OVERLAP_ADJACENT, OVERLAP_THETA)


def check_score(x: float) -> float:
    x = float(x)
    if math.isnan(x) or not SCORE_MIN <= x <= SCORE_MAX:
        raise ScoreOutOfRange(f"score {x!r} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]")
    return x


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 <= alpha <= 1.0:
        raise DiscountOutOfRange(f"discount factor {alpha!r} outside [0, 1]")
    return alpha


@dataclass(frozen=True)
class MembershipVector:
    """Memberships of one score in the five grades, in grade order.

    Valid vectors are a partition of unity with at most two positive
    entries, and any two positive entries sit on adjacent grades.
    """

    values: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.values) != len(FRAME):
            raise ValueError(f"need {len(FRAME)} memberships, got {len(self.values)}")
        for v in self.values:
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"membership {v!r} outside [0, 1]")
        if abs(math.fsum(self.values) - 1.0) > 1e-12:
            raise ValueError(f"memberships sum to {math.fsum(self.values)!r}, not 1")
        active = [i for i, v in enumerate(self.values) if v > 0.0]
        if len(active) > 2:
            raise ValueError("more than two grades active")
        if len(active) == 2 and active[1] - active[0] != 1:
            raise ValueError("active grades are not adjacent")

    def __getitem__(self, label: Label) -> float:
        return self.values[int(label)]

    def active(self) -> tuple[tuple[Label, float], ...]:
        """(grade, membership) pairs with positive membership, low grade first."""
        return tuple((l, self.values[int(l)]) for l in FRAME if self.values[int(l)] > 0.0)

    def as_dict(self) -> dict[str, float]:
        return {l.name: self.values[int(l)] for l in FRAME}


def membership(x: float) -> MembershipVector:
    """Evaluate all five grade memberships at a score in [0, 10]."""
    x = check_score(x)
    return MembershipVector(tuple([
        max(0.0, SLOPE * x - (SLOPE * peak - 1.0)) if x <= peak
        else max(0.0, -SLOPE * x + (SLOPE * peak + 1.0))
        for peak in map(GRADE_PEAKS.__getitem__, FRAME)]))


def rating_label(v: MembershipVector) -> Label:
    """Grade with the largest membership; exact ties go to the lower grade."""
    best = Label.VL
    best_value = v.values[0]
    for label in FRAME[1:]:
        value = v.values[int(label)]
        if value > best_value:
            best, best_value = label, value
    return best


def to_bpa(v: MembershipVector, alpha: float = 1.0,
           overlap_mode: str = OVERLAP_ADJACENT) -> Bpa:
    """Turn memberships into a mass function with reliability ``alpha``.

    Each active grade gets the singleton mass alpha * membership.  The
    held-back mass 1 - alpha goes to the pair of active grades when two are
    active ("adjacent" mode, the default) or always to the whole frame
    ("theta" mode); with a single active grade both modes fall back to the
    frame.
    """
    alpha = check_alpha(alpha)
    if overlap_mode not in OVERLAP_MODES:
        raise ValueError(f"overlap_mode must be one of {OVERLAP_MODES}, "
                         f"got {overlap_mode!r}")
    active = v.active()
    masses = [0.0] * SLOTS
    for label, mu in active:
        masses[1 << label] = alpha * mu
    rest = 1.0 - alpha
    if rest > 0.0:
        if overlap_mode == OVERLAP_ADJACENT and len(active) == 2:
            target = 1 << active[0][0] | 1 << active[1][0]
        else:
            target = FULL_SET.bits
        masses[target] += rest
    return unit_normalized(masses)
