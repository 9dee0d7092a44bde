"""Fusion rules against the exhaustive oracle and small hand-worked cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicrit import errors
from evicrit.core import (
    EMPTY_SET,
    FRAME,
    FULL_SET,
    MASS_PRUNE_EPS,
    Label,
    Subset,
    unit_normalized,
    vacuous,
)
from evicrit.evidence import (
    CONFLICT_EPS,
    average_bpas,
    brute_force_combine,
    conflict,
    dempster_combine,
    murphy_combine,
    pignistic,
    rank,
)
from evicrit.selftest import random_bpa

from mass_slots import slots


def bpa(**masses):
    """Shorthand: bpa(H=0.6, theta=0.4) or bpa(MH=0.3) for the {M,H} pair."""
    named = {"theta": FULL_SET, "VLL": Subset.of(Label.VL, Label.L),
             "LM": Subset.of(Label.L, Label.M), "MH": Subset.of(Label.M, Label.H),
             "HVH": Subset.of(Label.H, Label.VH)}
    out = {}
    for key, value in masses.items():
        out[named[key] if key in named else Subset.of(Label[key])] = value
    return unit_normalized(slots(out))


def test_conflict_simple():
    m1 = bpa(H=0.6, theta=0.4)
    m2 = bpa(L=0.5, H=0.3, theta=0.2)
    # only H x L collides: 0.6 * 0.5
    assert conflict(m1, m2) == pytest.approx(0.3, abs=1e-15)
    assert conflict(m1, m1) == 0.0
    # total conflict is a value here, not an error
    assert conflict(bpa(VL=1.0), bpa(VH=1.0)) == 1.0


def test_dempster_self_combination():
    m = bpa(H=0.6, theta=0.4)
    result = dempster_combine(m, m)
    assert result.conflict_k == 0.0
    assert result.bpa.mass(Subset.of(Label.H)) == pytest.approx(0.84, abs=1e-12)
    assert result.bpa.mass(FULL_SET) == pytest.approx(0.16, abs=1e-12)


def test_brute_force_normalizes_on_its_own(monkeypatch):
    m1 = bpa(H=0.6, theta=0.4)
    m2 = bpa(L=0.5, H=0.3, theta=0.2)

    def shared_normalizer(masses):
        raise AssertionError("the oracle must not share unit_normalized")

    monkeypatch.setattr("evicrit.evidence.unit_normalized", shared_normalizer)
    got = brute_force_combine(m1, m2)
    # H x L collides: k = 0.3, and {H}, {L}, theta share the remaining 0.7
    assert got.conflict_k == pytest.approx(0.3, abs=1e-15)
    assert got.bpa.mass(Subset.of(Label.H)) == pytest.approx(0.42 / 0.7, abs=1e-15)
    assert got.bpa.mass(Subset.of(Label.L)) == pytest.approx(0.2 / 0.7, abs=1e-15)
    assert got.bpa.mass(FULL_SET) == pytest.approx(0.08 / 0.7, abs=1e-15)
    assert math.fsum(got.bpa.vector.tolist()) == pytest.approx(1.0, abs=1e-15)


def test_dempster_normalizes_conflicting_mass():
    m1 = bpa(M=0.5, H=0.5)
    m2 = bpa(H=1.0)
    result = dempster_combine(m1, m2)
    assert result.conflict_k == pytest.approx(0.5, abs=1e-15)
    assert result.bpa.mass(Subset.of(Label.H)) == 1.0


def test_dempster_near_total_conflict_zadeh():
    # the classic two-expert paradox: the tiny shared grade takes everything
    m1 = bpa(VL=0.99, M=0.01)
    m2 = bpa(VH=0.99, M=0.01)
    result = dempster_combine(m1, m2)
    assert result.conflict_k == pytest.approx(0.9999, abs=1e-12)
    assert result.bpa.mass(Subset.of(Label.M)) == 1.0


def test_dempster_total_conflict_raises():
    m1 = bpa(VL=1.0)
    m2 = bpa(VH=1.0)
    with pytest.raises(errors.TotalConflict) as exc:
        dempster_combine(m1, m2)
    assert exc.value.conflict_k == 1.0
    with pytest.raises(errors.TotalConflict):
        brute_force_combine(m1, m2)


def test_dempster_vacuous_identity():
    m = bpa(M=0.3, MH=0.2, theta=0.5)
    result = dempster_combine(m, vacuous())
    assert result.conflict_k == 0.0
    assert result.bpa == m


def test_average_bpas():
    m1 = bpa(H=0.6, theta=0.4)
    m2 = bpa(H=0.2, M=0.4, theta=0.4)
    avg = average_bpas([m1, m2])
    assert avg.mass(Subset.of(Label.H)) == pytest.approx(0.4, abs=1e-15)
    assert avg.mass(Subset.of(Label.M)) == pytest.approx(0.2, abs=1e-15)
    assert avg.mass(FULL_SET) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(errors.EmptyInput):
        average_bpas([])


def test_murphy_single_input_passthrough():
    m = bpa(H=0.6, theta=0.4)
    result = murphy_combine([m])
    assert result.bpa == m
    assert result.conflict_k == 0.0


def test_murphy_two_inputs_is_self_combined_average():
    m1 = bpa(H=0.6, theta=0.4)
    m2 = bpa(M=0.6, theta=0.4)
    avg = average_bpas([m1, m2])
    expected = dempster_combine(avg, avg)
    result = murphy_combine([m1, m2])
    assert result.bpa == expected.bpa
    assert result.conflict_k == expected.conflict_k


def test_murphy_handles_total_pairwise_conflict():
    # plain pairwise combination of these is undefined; averaging first
    # keeps every grade alive
    m1 = bpa(VL=1.0)
    m2 = bpa(VH=1.0)
    result = murphy_combine([m1, m2])
    assert result.bpa.mass(Subset.of(Label.VL)) == pytest.approx(0.5, abs=1e-12)
    assert result.bpa.mass(Subset.of(Label.VH)) == pytest.approx(0.5, abs=1e-12)


def test_pignistic_spreads_composite_mass():
    b = bpa(H=0.84, theta=0.16)
    p = pignistic(b)
    assert p[Label.H] == pytest.approx(0.872, abs=1e-15)
    assert p[Label.VL] == pytest.approx(0.032, abs=1e-15)
    assert math.fsum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_pignistic_of_vacuous_is_uniform():
    p = pignistic(vacuous())
    assert all(v == 0.2 for v in p.values())


def test_rank_basics():
    report = rank({"B2": 0.3, "B10": 0.5, "B7": 0.2})
    assert [e[0] for e in report.entries] == ["B10", "B2", "B7"]
    assert report.top == "B10"
    assert report.bottom == "B7"
    assert [e[2] for e in report.entries] == [1, 2, 3]


def test_rank_ties_keep_mapping_order():
    report = rank({"B10": 0.5, "B2": 0.5})
    assert [e[0] for e in report.entries] == ["B10", "B2"]
    report = rank({"H": 0.4, "M": 0.4, "VL": 0.2})
    assert [e[0] for e in report.entries] == ["H", "M", "VL"]


def test_rank_grade_ties_given_in_frame_order_keep_frame_order():
    values = {"H": 0.4, "M": 0.4, "VL": 0.2}
    report = rank({l.name: values[l.name] for l in FRAME if l.name in values})
    assert [e[0] for e in report.entries] == ["M", "H", "VL"]


def test_rank_empty():
    with pytest.raises(errors.EmptyInput):
        rank({})


def test_rank_rejects_nan():
    with pytest.raises(ValueError, match="'b'"):
        rank({"a": 0.5, "b": math.nan, "c": 0.7})


def test_ranking_report_to_dict():
    d = rank({"a": 1.0, "b": 0.5}, note="demo").to_dict()
    assert d["top"] == "a" and d["bottom"] == "b" and d["note"] == "demo"
    assert d["entries"][0] == {"id": "a", "value": 1.0, "rank": 1}


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pair(seed):
    rng = np.random.default_rng(seed)
    return random_bpa(rng), random_bpa(rng)


@given(_seeds)
@settings(max_examples=250, deadline=None)
def test_sparse_combination_matches_brute_force(seed):
    m1, m2 = _pair(seed)
    try:
        fast = dempster_combine(m1, m2)
    except errors.TotalConflict as fast_exc:
        with pytest.raises(errors.TotalConflict) as brute_exc:
            brute_force_combine(m1, m2)
        assert abs(brute_exc.value.conflict_k - fast_exc.conflict_k) <= 1e-12
        return
    brute = brute_force_combine(m1, m2)
    assert abs(fast.conflict_k - brute.conflict_k) <= 1e-12
    focal_sets = ({s for s, _ in fast.bpa.focal()}
                  | {s for s, _ in brute.bpa.focal()})
    for subset in focal_sets:
        assert abs(fast.bpa.mass(subset) - brute.bpa.mass(subset)) <= 1e-9


@given(_seeds)
@settings(max_examples=250, deadline=None)
def test_combination_commutes(seed):
    m1, m2 = _pair(seed)
    try:
        ab = dempster_combine(m1, m2)
    except errors.TotalConflict:
        with pytest.raises(errors.TotalConflict):
            dempster_combine(m2, m1)
        return
    ba = dempster_combine(m2, m1)
    assert ab.conflict_k == ba.conflict_k
    for subset, mass in ab.bpa.focal():
        assert abs(mass - ba.bpa.mass(subset)) <= 1e-12


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_combined_mass_is_normalized(seed):
    m1, m2 = _pair(seed)
    try:
        result = dempster_combine(m1, m2)
    except errors.TotalConflict:
        return
    total = math.fsum(result.bpa.vector.tolist())
    assert total == 1.0
    assert all(m >= 0.0 for m in result.bpa.vector.tolist())


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_pignistic_is_a_probability(seed):
    rng = np.random.default_rng(seed)
    b = random_bpa(rng)
    p = pignistic(b)
    assert abs(math.fsum(p.values()) - 1.0) <= 1e-9
    assert all(v >= 0.0 for v in p.values())
    # singleton belief is a lower bound for its pignistic share
    for label in FRAME:
        assert p[label] >= b.mass(Subset.of(label)) - 1e-15


@given(_seeds, st.integers(min_value=2, max_value=5))
@settings(max_examples=100, deadline=None)
def test_murphy_is_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    bpas = [random_bpa(rng) for _ in range(n)]
    forward = murphy_combine(bpas)
    backward = murphy_combine(list(reversed(bpas)))
    assert forward.bpa == backward.bpa
    assert forward.conflict_k == backward.conflict_k


def bucketed_dempster(m1, m2):
    """Reference Dempster step on Subset-keyed dicts: every focal pair's
    product goes into its intersection's bucket, each bucket is fsum-ed
    once, and the result is scaled to unit sum with the residue absorbed by
    the heaviest set (lowest bits on ties).  Returns (k, masses) or None on
    total conflict."""
    buckets = {}
    for a, mass_a in m1.focal():
        for b, mass_b in m2.focal():
            buckets.setdefault(a & b, []).append(mass_a * mass_b)
    k = math.fsum(buckets.pop(EMPTY_SET, ()))
    if 1.0 - k <= CONFLICT_EPS:
        return None
    masses = {}
    for subset, products in buckets.items():
        value = math.fsum(products) / (1.0 - k)
        if value >= MASS_PRUNE_EPS:
            masses[subset] = value
    total = math.fsum(masses.values())
    if total != 1.0:
        masses = {s: m / total for s, m in masses.items()}
    for _ in range(8):
        residue = 1.0 - math.fsum(masses.values())
        if residue == 0.0:
            break
        heaviest = max(masses, key=lambda s: (masses[s], -s.bits))
        masses[heaviest] += residue
    return k, masses


@given(_seeds, st.sampled_from([6, 31]), st.sampled_from([6, 31]))
@settings(max_examples=300, deadline=None)
def test_dempster_matches_bucketed_reference_exactly(seed, focal_1, focal_2):
    rng = np.random.default_rng(seed)
    m1, m2 = random_bpa(rng, focal_1), random_bpa(rng, focal_2)
    want = bucketed_dempster(m1, m2)
    if want is None:
        with pytest.raises(errors.TotalConflict):
            dempster_combine(m1, m2)
        return
    got = dempster_combine(m1, m2)
    assert got.conflict_k == want[0]
    assert got.bpa.vector.tolist() == slots(want[1])
