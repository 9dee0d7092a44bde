import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicrit import errors
from evicrit.ahp import (
    DEFAULT_RI,
    PairwiseMatrix,
    aggregate_geometric,
    consistency,
    principal_eigenvalue,
)
from evicrit.selftest import charpoly_lambda_max, consistent_matrix, random_reciprocal


def test_pairwise_matrix_validation():
    PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(errors.InvalidMatrix):
        PairwiseMatrix(np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]]))
    with pytest.raises(errors.InvalidMatrix):
        PairwiseMatrix(np.array([[1.0]]))
    with pytest.raises(errors.InvalidMatrix):
        PairwiseMatrix(np.array([[1.0, -2.0], [-0.5, 1.0]]))
    with pytest.raises(errors.InvalidMatrix):
        PairwiseMatrix(np.array([[1.0, np.nan], [1.0, 1.0]]))


def test_reciprocity_violation_is_located():
    # a12 * a21 = 0.8, clearly off
    with pytest.raises(errors.InvalidMatrix) as exc:
        PairwiseMatrix(np.array([[1.0, 2.0], [0.4, 1.0]]))
    assert "(1,2)" in str(exc.value) and "(2,1)" in str(exc.value)


def test_matrix_is_read_only():
    m = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        m.values[0, 1] = 3.0


def test_aggregate_geometric_mean_of_two():
    a = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    b = PairwiseMatrix(np.array([[1.0, 8.0], [0.125, 1.0]]))
    g = aggregate_geometric([a, b])
    # geometric mean sqrt(2 * 8) = 4
    assert g.values[0, 1] == pytest.approx(4.0, rel=1e-12)
    assert g.values[1, 0] == 1.0 / g.values[0, 1]


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(errors.EmptyInput):
        aggregate_geometric([])
    a = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    c = PairwiseMatrix(np.ones((3, 3)))
    with pytest.raises(errors.OrderMismatch):
        aggregate_geometric([a, c])


def test_principal_eigenvalue_consistent_matrix():
    w = np.array([1.0, 2.0, 4.0])
    m = PairwiseMatrix(w[:, None] / w[None, :])
    lam = principal_eigenvalue(m)
    assert lam == pytest.approx(3.0, abs=1e-9)


def test_principal_eigenvalue_matches_numpy():
    rng = np.random.default_rng(4021)
    for n in (3, 4, 5, 6):
        m = random_reciprocal(rng, n)
        lam = principal_eigenvalue(m)
        ref = max(np.linalg.eigvals(m.values).real)
        assert lam == pytest.approx(ref, abs=1e-8)


def test_consistency_report_fields_and_modes():
    rng = np.random.default_rng(77)
    m = random_reciprocal(rng, 4)
    paper = consistency(m, denominator_mode="paper")
    std = consistency(m, denominator_mode="standard")
    assert paper.order == 4
    assert paper.lambda_max == std.lambda_max
    # paper divides by n, standard by n - 1
    assert paper.ci * 4 == pytest.approx(std.ci * 3, rel=1e-12)
    assert paper.ri == DEFAULT_RI[4]
    assert paper.denominator_mode == "paper"
    assert isinstance(paper.acceptable, bool)
    d = paper.to_dict()
    assert set(d) == {"order", "lambda_max", "ci", "ri", "cr",
                      "acceptable", "denominator_mode"}


def test_consistency_order_two_is_always_acceptable():
    m = PairwiseMatrix(np.array([[1.0, 9.0], [1.0 / 9.0, 1.0]]))
    rep = consistency(m)
    assert rep.cr == 0.0
    assert rep.acceptable


def test_consistency_missing_ri():
    rng = np.random.default_rng(8)
    m = random_reciprocal(rng, 5)
    with pytest.raises(errors.MissingRI):
        consistency(m, ri_table={3: 0.58})


def test_consistency_rejects_nonpositive_ri():
    rng = np.random.default_rng(8)
    m = random_reciprocal(rng, 5)
    for ri in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(errors.MissingRI):
            consistency(m, ri_table={5: ri})
    two = PairwiseMatrix(np.array([[1.0, 9.0], [1.0 / 9.0, 1.0]]))
    assert consistency(two, ri_table={2: 0.0}).cr == 0.0


def test_consistency_ri_override():
    rng = np.random.default_rng(9)
    m = random_reciprocal(rng, 3)
    base = consistency(m)
    doubled = consistency(m, ri_table={**DEFAULT_RI, 3: DEFAULT_RI[3] * 2})
    assert doubled.cr == pytest.approx(base.cr / 2, rel=1e-12)


def test_unknown_denominator_mode_rejected():
    m = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        consistency(m, denominator_mode="bogus")


@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_lambda_max_at_least_order(n, seed):
    rng = np.random.default_rng(seed)
    m = random_reciprocal(rng, n)
    assert principal_eigenvalue(m) >= n - 1e-9


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_power_iteration_agrees_with_charpoly_oracle(n, seed):
    rng = np.random.default_rng(seed)
    m = random_reciprocal(rng, n)
    lam = principal_eigenvalue(m)
    assert abs(lam - charpoly_lambda_max(m.values)) <= 1e-7


@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_consistent_matrices_have_zero_cr(n, seed):
    rng = np.random.default_rng(seed)
    m = consistent_matrix(rng, n)
    rep = consistency(m)
    assert abs(rep.cr) <= 1e-12
    assert rep.acceptable
