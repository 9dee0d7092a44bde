import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicrit import errors
from evicrit.core import FULL_SET, Label, Subset, vacuous
from evicrit.fuzzy import (
    GRADE_PEAKS,
    SLOPE,
    MembershipVector,
    check_alpha,
    check_score,
    membership,
    rating_label,
    to_bpa,
)


def test_score_bounds():
    assert check_score(0.0) == 0.0
    assert check_score(10) == 10.0
    for bad in (-0.1, 10.1, float("nan")):
        with pytest.raises(errors.ScoreOutOfRange):
            check_score(bad)


def test_alpha_bounds():
    assert check_alpha(1) == 1.0
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(errors.DiscountOutOfRange):
            check_alpha(bad)


def test_peaks_are_exact():
    for label, peak in GRADE_PEAKS.items():
        v = membership(peak)
        assert v[label] == 1.0
        assert v.active() == ((label, 1.0),)
        assert rating_label(v) is label


def piecewise_membership(x):
    """The grade breakpoints written out by hand: the reference for membership()."""
    vl = max(0.0, -SLOPE * x + 1.0) if x <= 2.5 else 0.0
    if x <= 2.5:
        l = max(0.0, SLOPE * x)
    elif x <= 5.0:
        l = max(0.0, -SLOPE * x + 2.0)
    else:
        l = 0.0
    if 2.5 <= x <= 5.0:
        m = max(0.0, SLOPE * x - 1.0)
    elif 5.0 < x <= 7.5:
        m = max(0.0, -SLOPE * x + 3.0)
    else:
        m = 0.0
    if 5.0 <= x <= 7.5:
        h = max(0.0, SLOPE * x - 2.0)
    elif 7.5 < x <= 10.0:
        h = max(0.0, -SLOPE * x + 4.0)
    else:
        h = 0.0
    vh = max(0.0, SLOPE * x - 3.0) if x >= 7.5 else 0.0
    return (vl, l, m, h, vh)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_membership_matches_piecewise_reference_bit_for_bit():
    grid = set(np.linspace(0.0, 10.0, 10_001).tolist())
    for quarter in range(41):
        x = below = above = quarter / 4
        grid.add(x)
        for _ in range(64):
            below, above = math.nextafter(below, -1.0), math.nextafter(above, 11.0)
            grid.update(v for v in (below, above) if 0.0 <= v <= 10.0)
    for x in sorted(grid):
        assert _bits(membership(x).values) == _bits(piecewise_membership(x)), x


def test_midpoints_split_evenly():
    v = membership(1.25)
    assert v[Label.VL] == 0.5
    assert v[Label.L] == 0.5
    v = membership(6.25)
    assert v.as_dict() == {"VL": 0.0, "L": 0.0, "M": 0.5, "H": 0.5, "VH": 0.0}


def test_known_interior_point():
    v = membership(9.0)
    assert v[Label.H] == pytest.approx(0.4, abs=1e-12)
    assert v[Label.VH] == pytest.approx(0.6, abs=1e-12)
    assert rating_label(v) is Label.VH


def test_ties_resolve_to_lower_grade():
    assert rating_label(membership(1.25)) is Label.VL
    assert rating_label(membership(3.75)) is Label.L
    assert rating_label(membership(6.25)) is Label.M
    assert rating_label(membership(8.75)) is Label.H


def test_membership_vector_validation():
    MembershipVector((0.0, 0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        MembershipVector((0.5, 0.0, 0.5, 0.0, 0.0))   # not adjacent
    with pytest.raises(ValueError):
        MembershipVector((0.4, 0.3, 0.3, 0.0, 0.0))   # three active
    with pytest.raises(ValueError):
        MembershipVector((0.7, 0.5, 0.0, 0.0, 0.0))   # sums to 1.2
    with pytest.raises(ValueError):
        MembershipVector((-0.1, 1.1, 0.0, 0.0, 0.0))


def test_to_bpa_two_active_adjacent_mode():
    b = to_bpa(membership(6.25), alpha=0.8)
    assert b.mass(Subset.of(Label.M)) == pytest.approx(0.4, abs=1e-15)
    assert b.mass(Subset.of(Label.H)) == pytest.approx(0.4, abs=1e-15)
    assert b.mass(Subset.of(Label.M, Label.H)) == pytest.approx(0.2, abs=1e-15)
    assert b.mass(FULL_SET) == 0.0


def test_to_bpa_two_active_theta_mode():
    b = to_bpa(membership(6.25), alpha=0.8, overlap_mode="theta")
    assert b.mass(Subset.of(Label.M, Label.H)) == 0.0
    assert b.mass(FULL_SET) == pytest.approx(0.2, abs=1e-15)


def test_to_bpa_single_active_falls_back_to_frame():
    for mode in ("adjacent", "theta"):
        b = to_bpa(membership(5.0), alpha=0.8, overlap_mode=mode)
        assert b.mass(Subset.of(Label.M)) == pytest.approx(0.8, abs=1e-15)
        assert b.mass(FULL_SET) == pytest.approx(0.2, abs=1e-15)


def test_to_bpa_full_reliability():
    b = to_bpa(membership(7.5), alpha=1.0)
    assert b.mass(Subset.of(Label.H)) == 1.0
    assert b.focal() == ((Subset.of(Label.H), 1.0),)


def test_to_bpa_zero_reliability():
    # nothing committed to singletons; everything held back
    assert to_bpa(membership(3.0), alpha=0.0, overlap_mode="theta") == vacuous()
    b = to_bpa(membership(3.0), alpha=0.0)
    assert b.mass(Subset.of(Label.L, Label.M)) == 1.0


def test_to_bpa_rejects_unknown_mode():
    with pytest.raises(ValueError):
        to_bpa(membership(3.0), overlap_mode="both")


_scores = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@given(_scores)
@settings(max_examples=400)
def test_partition_of_unity(x):
    v = membership(x)
    assert abs(math.fsum(v.values) - 1.0) <= 1e-12


@given(_scores)
@settings(max_examples=400)
def test_at_most_two_adjacent_grades(x):
    active = membership(x).active()
    assert 1 <= len(active) <= 2
    if len(active) == 2:
        assert int(active[1][0]) - int(active[0][0]) == 1


@given(_scores, _scores)
@settings(max_examples=400)
def test_lipschitz_bound(x, y):
    vx, vy = membership(x), membership(y)
    gap = 0.4 * abs(x - y) + 1e-12
    for label in Label:
        assert abs(vx[label] - vy[label]) <= gap


@given(_scores, st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.sampled_from(["adjacent", "theta"]))
@settings(max_examples=300)
def test_to_bpa_is_always_valid(x, alpha, mode):
    b = to_bpa(membership(x), alpha=alpha, overlap_mode=mode)
    assert math.fsum(b.vector.tolist()) == 1.0
    assert all(m >= 0.0 for m in b.vector.tolist())


@given(_scores)
@settings(max_examples=200)
def test_rating_label_is_an_active_grade(x):
    v = membership(x)
    label = rating_label(v)
    assert v[label] == max(v.values)
