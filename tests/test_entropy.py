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


def test_decision_matrix_is_read_only():
    d = dm([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        d.values[0, 0] = 9.0


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
