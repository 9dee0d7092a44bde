"""Entropy weighting chain: normalize, entropy, divergence, weights, priors."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evicrit import errors
from evicrit.entropy import (
    DecisionMatrix,
    EntropyTable,
    adjust_weights,
    build_table,
    column_normalize,
    divergence,
    entropy_values,
    entropy_weights,
)


def dm(values, ids=None):
    a = np.asarray(values, dtype=float)
    if ids is None:
        ids = [f"r{i}" for i in range(a.shape[1])]
    return DecisionMatrix(a, ids)


def weights_of(a):
    return entropy_weights(divergence(entropy_values(column_normalize(dm(a)))))


def test_decision_matrix_validation():
    with pytest.raises(errors.DegenerateRows):
        dm([[1.0, 2.0]])
    with pytest.raises(errors.ZeroColumn) as exc:
        dm([[1.0, 0.0], [2.0, 0.0]])
    assert "2" in str(exc.value)  # 1-based column index
    with pytest.raises(errors.InvalidMatrix):
        dm([[1.0, -1.0], [2.0, 3.0]])
    with pytest.raises(errors.InvalidMatrix):
        DecisionMatrix(np.array([1.0, 2.0]), ["a", "b"])
    with pytest.raises(errors.InvalidMatrix):
        DecisionMatrix(np.ones((2, 2)), ["a", "a"])


@pytest.mark.parametrize("build, error, message", [
    (lambda: dm([[1.0], [2.0]]), errors.InvalidMatrix, "need at least 2 columns, got 1"),
    (lambda: DecisionMatrix(np.ones((2, 3)), ["a", "b"]), errors.InvalidMatrix,
     "2 column ids for 3 columns"),
    (lambda: entropy_values(np.full((1, 3), 1.0)), errors.DegenerateRows,
     "entropy scaling needs at least 2 rows, got 1"),
], ids=["one-column", "too-few-ids", "entropy-one-row"])
def test_weighting_refusals_are_worded(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_decision_matrix_refuses_a_cell_that_is_not_nonnegative_finite(bad):
    with pytest.raises(errors.InvalidMatrix) as exc:
        dm([[1.0, bad], [2.0, 3.0]])
    assert str(exc.value) == "entries must be nonnegative finite reals"


def test_decision_matrix_takes_negative_zero():
    assert math.copysign(1.0, dm([[1.0, -0.0], [2.0, 3.0]]).values[0, 1]) == -1.0


def two_where_entropy_terms(p):
    positive = p > 0.0
    return np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0)


def test_entropy_values_match_the_two_where_reference_bit_for_bit():
    # 0 ln 0 = 0 for every entry that is not positive, NaN included: one
    # where on the log's argument gives the bits of a second where on the terms
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, -5e-324,
               5e-324, 2.2e-308, 1e-300, 0.5, 1.0, 1e300]
    rng = np.random.default_rng(27)
    for _ in range(200):
        p = rng.choice(special + list(rng.random(4)), size=(rng.integers(2, 6), 3))
        m = p.shape[0]
        with np.errstate(invalid="ignore"):
            e = np.clip(-two_where_entropy_terms(p).sum(axis=0) / math.log(m), 0.0, 1.0)
            ref = np.where(np.ptp(p, axis=0) == 0.0, 1.0, e)
            got = entropy_values(p)
        assert got.tobytes() == ref.tobytes(), p


def test_decision_matrix_is_read_only():
    d = dm([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        d.values[0, 0] = 9.0


def test_no_array_under_a_decision_matrix_can_be_made_writeable():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = dm(source)
    source[0, 0] = 9.0
    assert d.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    a = d.values
    while isinstance(a, np.ndarray):
        with pytest.raises(ValueError):
            a.setflags(write=True)
        a = a.base


def test_column_normalize_simple():
    p = column_normalize(dm([[2.0, 1.0], [6.0, 1.0]]))
    assert p[0, 0] == 0.25
    assert p[1, 0] == 0.75
    assert p[0, 1] == 0.5


def test_entropy_known_value():
    # column with shares (1/4, 3/4): the classic 0.811... bits
    e = entropy_values(column_normalize(dm([[2.0, 1.0], [6.0, 1.0]])))
    assert e[0] == pytest.approx(0.8112781244591328, abs=1e-12)
    assert e[1] == 1.0


def test_entropy_extremes_are_exact():
    p = column_normalize(dm([[3.7, 0.0, 1.0], [3.7, 5.0, 2.0], [3.7, 0.0, 3.0]]))
    e = entropy_values(p)
    assert e[0] == 1.0   # uniform column, exactly
    assert e[1] == 0.0   # point-mass column, exactly
    assert 0.0 < e[2] < 1.0


def test_divergence_is_complement():
    e = np.array([0.2, 1.0, 0.75])
    assert np.array_equal(divergence(e), 1.0 - e)


def test_entropy_weights_known_value():
    w = entropy_weights(np.array([0.1, 0.1, 0.2]))
    assert list(w) == [0.25, 0.25, 0.5]


def test_entropy_weights_all_zero():
    with pytest.raises(errors.AllZeroDivergence):
        entropy_weights(np.array([0.0, 0.0]))


def test_adjust_weights_known_value():
    w = adjust_weights(np.array([0.5, 0.5]), np.array([1.0, 3.0]))
    assert list(w) == [0.25, 0.75]


def test_adjust_weights_uniform_priors_identity():
    w = np.array([0.2, 0.3, 0.5])
    out = adjust_weights(w, np.array([0.4, 0.4, 0.4]))
    assert np.max(np.abs(out - w)) <= 1e-12


def test_adjust_weights_degenerate():
    with pytest.raises(errors.DegeneratePriors):
        adjust_weights(np.array([0.5, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(errors.DegeneratePriors):
        adjust_weights(np.array([0.5, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(errors.DegeneratePriors):
        adjust_weights(np.array([0.5, 0.5]), np.array([1.0, 1.0, 1.0]))


def test_build_table_and_csv_round_trip():
    d = dm([[2.0, 1.0, 4.0], [6.0, 3.0, 4.0], [4.0, 9.0, 1.0]],
           ids=["a", "b", "c"])
    table = build_table(d, priors={"a": 0.2, "b": 0.5, "c": 0.3})
    assert table.ids == ("a", "b", "c")
    assert math.fsum(table.weights) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(table.adjusted) == pytest.approx(1.0, abs=1e-12)
    back = EntropyTable.from_csv(table.to_csv())
    assert back == table  # repr round-trip keeps exact floats


def test_build_table_priors_optional():
    d = dm([[2.0, 1.0], [6.0, 3.0]])
    table = build_table(d)
    assert table.priors is None
    assert table.adjusted is None
    assert table.to_csv().splitlines()[0] == "indicator,E,d,W,lambda,W_adj"


def test_csv_round_trip_without_priors():
    table = build_table(dm([[2.0, 1.0, 4.0], [6.0, 3.0, 4.0]], ids=["a", "b", "c"]))
    back = EntropyTable.from_csv(table.to_csv())
    assert back == table
    assert back.priors is None and back.adjusted is None


def test_from_csv_refuses_a_partly_filled_prior_column():
    text = "indicator,E,d,W,lambda,W_adj\na,0.5,0.5,0.5,0.4,0.5\nb,0.5,0.5,0.5,,0.5\n"
    with pytest.raises(ValueError):
        EntropyTable.from_csv(text)


@pytest.mark.parametrize("row", ["A,0.5,0.5,1.0,", "A,0.5,0.5,1.0,,,EXTRA", "A,0.5,0.5,1.0,,,"],
                         ids=["short", "wide", "wide-empty"])
def test_from_csv_refuses_a_row_narrower_or_wider_than_the_header(row):
    header = "indicator,E,d,W,lambda,W_adj\n"
    assert EntropyTable.from_csv(header + "A,0.5,0.5,1.0,,\n").ids == ("A",)
    with pytest.raises(ValueError):
        EntropyTable.from_csv(header + row + "\n")


def test_from_csv_reads_a_header_only_table_as_empty():
    assert EntropyTable.from_csv("indicator,E,d,W,lambda,W_adj\n") == EntropyTable(
        ids=(), entropy=(), div=(), weights=(), priors=None, adjusted=None)


def test_rows_follow_the_columns_and_keep_null_prior_columns():
    table = build_table(dm([[2.0, 1.0], [6.0, 3.0]], ids=["a", "b"]))
    rows = table.rows()
    assert [list(row) for row in rows] == [["indicator", *EntropyTable.COLUMNS]] * 2
    assert list(EntropyTable.COLUMNS) == ["E", "d", "W", "lambda", "W_adj"]
    assert [(row["lambda"], row["W_adj"]) for row in rows] == [(None, None)] * 2
    assert [row["W"] for row in rows] == list(table.weights)


def test_build_table_missing_prior_id():
    d = dm([[2.0, 1.0], [6.0, 3.0]], ids=["a", "b"])
    with pytest.raises(errors.DegeneratePriors) as exc:
        build_table(d, priors={"a": 0.2, "zz": 0.8})
    assert "b" in str(exc.value)


_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@st.composite
def matrices(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=2, max_value=6))
    return draw(hnp.arrays(float, (m, n), elements=_pos))


def _informative(a):
    # near-uniform matrices have vanishing divergence; the 1e-12 bound is
    # only meaningful when the weights are not built from rounding noise
    d = divergence(entropy_values(column_normalize(dm(a))))
    return float(np.sum(d)) >= 1e-2


@given(matrices(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_weights_scale_invariant(a, c):
    assume(_informative(a))
    base = weights_of(a)
    scaled = weights_of(a * c)
    assert np.max(np.abs(base - scaled)) <= 1e-12


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_weights_row_permutation_invariant(a, rnd):
    assume(_informative(a))
    order = list(range(a.shape[0]))
    rnd.shuffle(order)
    base = weights_of(a)
    permuted = weights_of(a[order])
    assert np.max(np.abs(base - permuted)) <= 1e-12


@given(matrices())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_weights_sum_to_one(a):
    assume(_informative(a))
    w = weights_of(a)
    assert abs(math.fsum(w) - 1.0) <= 1e-12
    assert np.all(w >= 0.0)


def test_near_uniform_column_gets_no_negative_weight():
    # the shares round to E = 1 + 2.2e-16 before clamping
    a = [[0.1, 0.001], [0.10000000000000012, 1.0], [0.1, 0.001], [0.1, 0.001]]
    e = entropy_values(column_normalize(dm(a)))
    assert e[0] == 1.0
    w = weights_of(a)
    assert w[0] == 0.0
    assert w[1] == 1.0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_entropy_in_unit_interval(a):
    e = entropy_values(column_normalize(dm(a)))
    assert np.all(e >= 0.0)
    assert np.all(e <= 1.0)
