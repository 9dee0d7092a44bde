"""Frame, subset and mass-function basics."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicrit import errors
from evicrit.core import (
    CATALOG,
    CATALOG_IDS,
    EMPTY_SET,
    FRAME,
    FULL_SET,
    Bpa,
    Label,
    Subset,
    bpa_from_dict,
    bpa_to_dict,
    indicator,
    parse_label,
    subsets_of,
    unit_normalized,
    vacuous,
    validate_bpa,
)

from mass_slots import slots


def test_label_order_and_names():
    assert [l.name for l in FRAME] == ["VL", "L", "M", "H", "VH"]
    assert Label.VL < Label.L < Label.M < Label.H < Label.VH
    assert str(Label.M) == "M"


def test_parse_label():
    assert parse_label("VH") is Label.VH
    assert parse_label("M") is Label.M
    # strict: no trimming or case folding
    for bad in ("EXTREME", " M ", "m"):
        with pytest.raises(errors.ParseError):
            parse_label(bad)


def test_subset_construction():
    s = Subset.of(Label.M, Label.H)
    assert s == Subset.from_names(["H", "M"])
    assert s.members == (Label.M, Label.H)
    assert s.names() == ("M", "H")
    assert len(s) == 2
    assert Label.M in s and Label.VL not in s
    assert str(s) == "{M,H}"
    assert str(EMPTY_SET) == "{}"
    assert len(FULL_SET) == 5


def test_subset_algebra():
    a = Subset.of(Label.L, Label.M)
    b = Subset.of(Label.M, Label.H)
    assert a & b == Subset.of(Label.M)
    assert a | b == Subset.of(Label.L, Label.M, Label.H)
    assert (a & Subset.of(Label.VH)).is_empty()
    assert a.issubset(FULL_SET)
    assert not FULL_SET.issubset(a)


def test_subsets_of_enumeration():
    all_subs = list(subsets_of())
    assert len(all_subs) == 32
    assert all_subs[0] == EMPTY_SET
    assert all_subs[-1] == FULL_SET
    assert [s.bits for s in all_subs] == list(range(32))


def test_bpa_accumulates_and_defaults_to_zero():
    # a fixture listing one subset twice: the masses add in input order
    h = Subset.of(Label.H)
    b = bpa_from_dict({"frame": ["VL", "L", "M", "H", "VH"],
                       "masses": [{"subset": ["H"], "mass": 0.3},
                                  {"subset": ["H"], "mass": 0.3},
                                  {"subset": ["VL", "L", "M", "H", "VH"], "mass": 0.4}]})
    assert b.mass(h) == 0.6
    assert b.mass(Subset.of(Label.VL)) == 0.0
    assert b.total() == pytest.approx(1.0, abs=1e-15)
    assert {subset for subset, _ in b.focal()} == {h, FULL_SET}


def test_bpa_equality_ignores_explicit_zeros():
    h = Subset.of(Label.H)
    assert Bpa({h: 1.0, FULL_SET: 0.0}) == Bpa({h: 1.0})


def test_vacuous():
    v = vacuous()
    assert v.mass(FULL_SET) == 1.0
    assert v.focal() == ((FULL_SET, 1.0),)


def test_unit_normalized_scales_and_drops():
    h = Subset.of(Label.H)
    m = Subset.of(Label.M)
    b = unit_normalized(slots({h: 2.0, m: 2.0, FULL_SET: 0.0, EMPTY_SET: 0.0}))
    assert b.mass(h) == 0.5
    assert b.mass(m) == 0.5
    assert b.mass(FULL_SET) == 0.0
    assert math.fsum(b.vector.tolist()) == 1.0


def test_unit_normalized_rejects_nothing_positive():
    with pytest.raises(errors.MassSumInvalid):
        unit_normalized(slots({Subset.of(Label.H): 0.0}))


def test_unit_normalized_rejects_infinite_total():
    # two finite masses whose sum overflows, and an infinite mass
    with pytest.raises(errors.MassSumInvalid):
        unit_normalized(slots({FULL_SET: 1e308, Subset(1): 1e308}))
    with pytest.raises(errors.MassSumInvalid):
        unit_normalized(slots({FULL_SET: math.inf, Subset(1): 0.5}))


def test_validate_bpa_errors():
    h = Subset.of(Label.H)
    # both masses are out of range; the smaller set is reported first
    with pytest.raises(errors.MassOutOfRange, match=r"^mass -0\.2 on \{H\} outside \[0, 1\]$"):
        validate_bpa(Bpa({h: -0.2, FULL_SET: 1.2}))
    with pytest.raises(errors.MassOutOfRange):
        validate_bpa(Bpa({h: float("nan")}))
    with pytest.raises(errors.NonzeroEmptySet):
        validate_bpa(Bpa({EMPTY_SET: 0.2, h: 0.8}))
    with pytest.raises(errors.MassSumInvalid):
        validate_bpa(Bpa({h: 0.5}))


_subset_bits = st.integers(min_value=1, max_value=31)


@st.composite
def raw_masses(draw):
    bits = draw(st.lists(_subset_bits, min_size=1, max_size=6, unique=True))
    vals = draw(st.lists(st.floats(min_value=1e-6, max_value=10.0),
                         min_size=len(bits), max_size=len(bits)))
    return {Subset(b): v for b, v in zip(bits, vals)}


@given(raw_masses())
@settings(max_examples=300)
def test_unit_normalized_total_is_exactly_one(masses):
    b = unit_normalized(slots(masses))
    assert math.fsum(b.vector.tolist()) == 1.0
    assert all(v >= 0.0 for v in b.vector.tolist())


@given(raw_masses())
@settings(max_examples=200)
def test_validate_bpa_idempotent(masses):
    b = validate_bpa(unit_normalized(slots(masses)))
    again = validate_bpa(b)
    assert again == b
    assert again.vector.tolist() == b.vector.tolist()


@given(raw_masses())
@settings(max_examples=200)
def test_bpa_json_round_trip(masses):
    b = unit_normalized(slots(masses))
    back = bpa_from_dict(json.loads(json.dumps(bpa_to_dict(b))))
    assert back == b


def test_bpa_dict_shape():
    b = Bpa({Subset.of(Label.M, Label.H): 0.05, FULL_SET: 0.95})
    d = bpa_to_dict(b)
    assert d["frame"] == ["VL", "L", "M", "H", "VH"]
    assert {"subset": ["M", "H"], "mass": 0.05} in d["masses"]
    assert bpa_from_dict(d) == b


@pytest.mark.parametrize("doc", [{"frame": ["H"], "masses": 5},
                                 {"frame": 5, "masses": []},
                                 # a string is not a one-grade frame
                                 {"frame": "L", "masses": [{"subset": ["L"], "mass": 1.0}]}])
def test_bpa_from_dict_rejects_non_list_fields(doc):
    with pytest.raises(errors.ParseError):
        bpa_from_dict(doc)


def test_bpa_from_dict_rejects_focal_set_outside_frame():
    with pytest.raises(errors.FrameMismatch, match=r"focal set \{H\} outside frame \{VL,L\}"):
        bpa_from_dict({"frame": ["VL", "L"], "masses": [{"subset": ["H"], "mass": 1.0}]})
    # a zero mass outside the frame is no focal set
    b = bpa_from_dict({"frame": ["VL", "L"], "masses": [{"subset": ["L"], "mass": 1.0},
                                                         {"subset": ["H"], "mass": 0.0}]})
    assert b == Bpa({Subset.of(Label.L): 1.0})


def test_bpa_from_dict_rejects_unknown_label():
    with pytest.raises(errors.ParseError):
        bpa_from_dict({"frame": ["VL", "L", "M", "H", "VH"],
                       "masses": [{"subset": ["XX"], "mass": 1.0}]})


def test_catalog_shape():
    assert len(CATALOG) == 14
    assert CATALOG_IDS == tuple(f"B{i}" for i in range(1, 15))
    assert indicator("B8").description == "Pattern/Motif recognition"
    with pytest.raises(KeyError):
        indicator("B99")
