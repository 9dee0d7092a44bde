"""One number rule for every scalar a caller or a file gives (``core.number``),
and one count rule for every whole count (``core.count``).

Each entry point takes an int, a float and numpy's integer and floating
scalars, with the same result as for the equal float, and refuses a str,
bytes, a bool, numpy's bool and None with the error class it already uses
and the text of ``core.number``'s refusal rule.  Number text, in a CSV row
or on the command line, follows ``core.number_text``.
A count is an int or one of numpy's integer scalars, with the result of the
equal int; a float, a bool, numpy's bool, a str and None are refused.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from evicrit import errors
from evicrit.ahp import PairwiseMatrix, consistency
from evicrit.core import (FULL_SET, SLOTS, Bpa, Subset, bpa_from_dict, count, number,
                          number_text)
from evicrit.datasets import export_example_inputs
from evicrit.entropy import DecisionMatrix, build_table
from evicrit.evidence import rank
from evicrit.fuzzy import MembershipVector, check_alpha, check_score, membership, to_bpa
from evicrit.pipeline import PipelineConfig, load_ri_table, run_pipeline, windows

H = Subset.from_names(["H"])
MATRIX = PairwiseMatrix([[1.0, 2.0, 4.0], [0.5, 1.0, 3.0], [0.25, 1 / 3, 1.0]])
DECISION = DecisionMatrix([[2.0, 1.0, 4.0], [6.0, 3.0, 4.0]], ["a", "b", "c"])


def _validated(v, name="alpha"):
    PipelineConfig(scores="s.csv", matrices="m.json", **{name: v}).validated()


def _membership_vector(v):
    rest = 0.25 if v == 0.75 else 0.0  # the memberships sum to 1 for 1 and 0.75
    return MembershipVector((0.0, 0.0, 0.0, v, rest)).values


def _bpa_slots(v):
    masses = [0.0] * SLOTS
    masses[H.bits] = v
    return Bpa(masses).vector


def _bpa_fixture(v):
    rest = 0.25 if v == 0.75 else 0.0  # the masses sum to 1 for 1 and 0.75
    return bpa_from_dict({"frame": ["VL", "L", "M", "H", "VH"],
                          "masses": [{"subset": ["H"], "mass": v},
                                     {"subset": ["VL", "L", "M", "H", "VH"], "mass": rest}]})


def _ri_file(tmp_path, v):
    path = tmp_path / "ri.json"
    path.write_text(json.dumps({"3": v}))
    return load_ri_table(path)


# name: (call, error for a non-number, whether the value must be JSON, the
# refusal's text from the value and the reason core.number gives for it)
ENTRY_POINTS = {
    "config-alpha": (_validated, errors.ConfigError, False,
                     "alpha: discount factor: {reason}"),
    "check_alpha": (check_alpha, errors.DiscountOutOfRange, False,
                    "discount factor: {reason}"),
    "to_bpa": (lambda v: to_bpa(membership(6.25), alpha=v), errors.DiscountOutOfRange, False,
               "discount factor: {reason}"),
    "check_score": (check_score, errors.ScoreOutOfRange, False, "score: {reason}"),
    "membership": (membership, errors.ScoreOutOfRange, False, "score: {reason}"),
    "consistency-ri": (lambda v: consistency(MATRIX, ri_table={3: v}), errors.MissingRI, False,
                       "random index for order 3: {reason}"),
    "build_table-prior": (lambda v: build_table(DECISION, priors={"a": v, "b": 0.5, "c": 0.25}),
                          errors.DegeneratePriors, False, "prior for a: {reason}"),
    "bpa-mapping": (lambda v: Bpa({H: v, FULL_SET: 0.25}).vector, TypeError, False, "{reason}"),
    "bpa-slots": (_bpa_slots, TypeError, False, "{reason}"),
    "bpa_from_dict": (_bpa_fixture, errors.ParseError, False,
                      'masses[0] needs "subset" and numeric "mass"'),
    "load_ri_table": (_ri_file, errors.ParseError, True, "{path}: bad RI entry '3': {reason}"),
    "MembershipVector": (_membership_vector, ValueError, False, "membership: {reason}"),
    "rank": (lambda v: rank({"a": v, "b": 0.5}).entries, ValueError, False,
             "cannot rank 'a': {reason}"),
}
NUMBERS = {"int": 1, "float": 0.75, "float64": np.float64(0.75),
           "float32": np.float32(0.75), "int64": np.int64(1)}
NOT_NUMBERS = {"str": "5", "bytes": b"5", "bool": True, "np-bool": np.True_, "none": None}


def _json_safe(value):
    return type(value) in (int, float, str, bool, type(None))


def _cases(values):
    return [pytest.param(entry, value, id=f"{entry}-{kind}")
            for entry, (_, _, json_only, _) in ENTRY_POINTS.items()
            for kind, value in values.items()
            if not json_only or _json_safe(value)]


def _call(entry, value, tmp_path):
    call = ENTRY_POINTS[entry][0]
    return call(tmp_path, value) if call is _ri_file else call(value)


@pytest.mark.parametrize("entry, value", _cases(NUMBERS))
def test_entry_points_take_numbers_as_the_equal_float(tmp_path, entry, value):
    got = _call(entry, value, tmp_path)
    want = _call(entry, float(value), tmp_path)
    # repr also tells a numpy scalar from a float that compares equal
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("entry, value", _cases(NOT_NUMBERS))
def test_entry_points_refuse_what_is_not_a_number(tmp_path, entry, value):
    with pytest.raises(ENTRY_POINTS[entry][1]):
        _call(entry, value, tmp_path)


#: an int beyond float
BIG = 10**400
# name: (a value outside the entry point's range, its error, its text)
OUT_OF_RANGE = {
    "config-alpha": (-1, errors.ConfigError, "alpha: discount factor -1.0 outside [0, 1]"),
    "check_alpha": (np.float64(1.5), errors.DiscountOutOfRange,
                    "discount factor 1.5 outside [0, 1]"),
    "to_bpa": (math.nan, errors.DiscountOutOfRange, "discount factor nan outside [0, 1]"),
    "check_score": (11, errors.ScoreOutOfRange, "score 11.0 outside [0, 10]"),
    "membership": (math.inf, errors.ScoreOutOfRange, "score inf outside [0, 10]"),
    "consistency-ri": (-1, errors.MissingRI,
                       "random index for order 3 must be positive and finite, got -1.0"),
    "build_table-prior": (math.nan, errors.DegeneratePriors,
                          "priors must be nonnegative finite reals"),
    "bpa_from_dict": (11, errors.MassOutOfRange, "mass 11.0 on {H} outside [0, 1]"),
    "load_ri_table": (-1, errors.ParseError, "{path}: bad RI entry '3': -1"),
    "MembershipVector": (-1, ValueError, "membership -1.0 outside [0, 1]"),
    "rank": (math.nan, ValueError, "cannot rank 'a': its value is NaN"),
}


@pytest.mark.parametrize("entry, value", _cases({**NOT_NUMBERS, "big-int": BIG}))
def test_refusals_name_the_value_and_the_reason(tmp_path, entry, value):
    _, error, _, text = ENTRY_POINTS[entry]
    reason = f"{value!r} is not a number"
    if value is BIG:
        reason = "int too large to convert to float"
        if error is TypeError:  # a Bpa has no error class of its own
            error = OverflowError
    with pytest.raises(error) as e:
        _call(entry, value, tmp_path)
    assert type(e.value) is error
    assert str(e.value) == text.format(value=value, reason=reason, path=tmp_path / "ri.json")


@pytest.mark.parametrize("entry", OUT_OF_RANGE)
def test_out_of_range_refusals(tmp_path, entry):
    value, error, text = OUT_OF_RANGE[entry]
    with pytest.raises(error) as e:
        _call(entry, value, tmp_path)
    assert type(e.value) is error
    assert str(e.value) == text.replace("{path}", str(tmp_path / "ri.json"))


@pytest.mark.parametrize("text, kind, want", [
    (" 0.8", float, 0.8), ("1e-1", float, 0.1), ("nan", float, math.nan), ("+2 ", int, 2)])
def test_number_text_reads_what_float_and_int_read(text, kind, want):
    got = number_text(text, kind)
    assert type(got) is kind and (got == want or math.isnan(want) and math.isnan(got))


@pytest.mark.parametrize("text, kind", [
    ("0_8", float), ("\u0665", float), ("1_0", int), ("\u0664", int), ("4.0", int), ("", float)])
def test_number_text_refuses_what_the_files_refuse(text, kind):
    with pytest.raises(ValueError):
        number_text(text, kind)


def test_membership_vector_names_the_first_fault_in_grade_order():
    with pytest.raises(ValueError, match=r"^membership 2\.0 outside \[0, 1\]$"):
        MembershipVector((2.0, "x", 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^membership: 'x' is not a number$"):
        MembershipVector(("x", 2.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("value", [
    1, 0.5, -2, Fraction(1, 2), np.float64(0.5), np.float32(0.5), np.int64(3), np.uint8(3)],
    ids=["int", "float", "negative", "fraction", "float64", "float32", "int64", "uint8"])
def test_number_takes_reals(value):
    assert type(number(value)) is float and number(value) == value


@pytest.mark.parametrize("value", [
    "5", b"5", True, False, np.True_, None, Decimal(1), 1j, [1.0]],
    ids=["str", "bytes", "true", "false", "np-bool", "none", "decimal", "complex", "list"])
def test_number_refuses_the_rest(value):
    with pytest.raises(TypeError):
        number(value)


def test_an_ri_key_past_ints_digit_limit_is_a_parse_error(tmp_path):
    # int() refuses a str of more than 4,300 digits with ValueError; the
    # refusal echoes the key through reprlib, bounded to 30 characters
    key = "1" * 5000
    path = tmp_path / "ri.json"
    path.write_text(json.dumps({key: 0.5}))
    with pytest.raises(errors.ParseError) as e:
        load_ri_table(path)
    assert str(e.value) == f"{path}: bad RI entry '{'1' * 12}...{'1' * 13}': 0.5"


def test_a_long_list_in_a_number_field_is_echoed_bounded(tmp_path):
    path = tmp_path / "ri.json"
    path.write_text(json.dumps({"3": [1] * 3000}))
    with pytest.raises(errors.ParseError) as e:
        load_ri_table(path)
    assert str(e.value) == f"{path}: bad RI entry '3': [1, 1, 1, 1, 1, 1, ...] is not a number"
    with pytest.raises(TypeError, match=r"^\[1, 1, 1, 1, 1, 1, \.\.\.\] is not a number$"):
        number([1] * 3000)


# name: (call of a count, the name its ConfigError gives); each refuses a
# non-count with ConfigError("<name>: <value!r> is not an integer")
COUNT_ENTRY_POINTS = {
    "config-window": (lambda v: _validated(v, "window"), "window"),
    "config-stride": (lambda v: _validated(v, "stride"), "stride"),
    "windows-window": (lambda v: windows("abcd", v, 1), "window"),
    "windows-stride": (lambda v: windows("abcd", 1, v), "stride"),
}
COUNTS = {"int": 2, "int64": np.int64(2), "uint8": np.uint8(2)}
NOT_COUNTS = {"float": 2.0, "float64": np.float64(2.0), "bool": True, "np-bool": np.True_,
              "str": "2", "none": None}


def _count_cases(values):
    return [pytest.param(entry, value, id=f"{entry}-{kind}")
            for entry in COUNT_ENTRY_POINTS for kind, value in values.items()]


@pytest.mark.parametrize("entry, value", _count_cases(COUNTS))
def test_entry_points_take_counts_as_the_equal_int(entry, value):
    call, _ = COUNT_ENTRY_POINTS[entry]
    assert call(value) == call(int(value))
    assert type(count(value)) is int and count(value) == value


@pytest.mark.parametrize("entry, value", _count_cases(NOT_COUNTS))
def test_entry_points_refuse_what_is_not_a_count(entry, value):
    call, name = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(errors.ConfigError) as e:
        call(value)
    assert type(e.value) is errors.ConfigError
    assert str(e.value) == f"{name}: {value!r} is not an integer"
    with pytest.raises(TypeError, match=r" is not an integer$"):
        count(value)


def test_counts_give_the_manifest_of_the_equal_int(tmp_path):
    # the manifest records window and stride as ints, which JSON can write
    inputs = export_example_inputs(tmp_path / "inputs")
    texts = set()
    for n, (window, stride) in enumerate([(4, 2), (np.int64(4), np.uint8(2))]):
        run_pipeline(PipelineConfig(
            scores=inputs["scores.csv"], matrices=inputs["matrices.json"],
            ri_table=inputs["ri.json"], window=window, stride=stride,
            out_dir=tmp_path / str(n)))
        texts.add((tmp_path / str(n) / "manifest.json").read_bytes())
    assert len(texts) == 1
