import decimal
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicrit import ahp, errors
from evicrit.ahp import (
    DEFAULT_RI,
    RECIPROCITY_TOL,
    PairwiseMatrix,
    aggregate_geometric,
    consistency,
    number_cells,
    pairwise_matrices,
    principal_eigenvalue,
)
from evicrit.datasets import example_input_text
from evicrit.entropy import DecisionMatrix
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
    with pytest.raises(errors.InvalidMatrix, match="stack of square matrices"):
        pairwise_matrices([np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])])


def test_reciprocity_violation_is_located():
    # a12 * a21 = 0.8, clearly off
    with pytest.raises(errors.InvalidMatrix) as exc:
        PairwiseMatrix(np.array([[1.0, 2.0], [0.4, 1.0]]))
    assert "(1,2)" in str(exc.value) and "(2,1)" in str(exc.value)


def test_reciprocity_violation_prints_plain_floats():
    with pytest.raises(errors.InvalidMatrix) as exc:
        PairwiseMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]))
    assert "2.0 * 1.0 != 1" in str(exc.value)


def test_reciprocity_overflow_is_an_error_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidMatrix, match="reciprocity violated"):
            PairwiseMatrix(np.array([[1.0, 1e308], [1e308, 1.0]]))


def reference_reciprocity_error(a):
    """The constructor's former row loop: the message for the first violating
    pair in row order of the upper triangle (diagonal included), or None."""
    n = a.shape[0]
    for i in range(n):
        pairs = zip(a[i, i:].tolist(), a[i:, i].tolist())
        for j, (upper, lower) in enumerate(pairs, start=i):
            if abs(upper * lower - 1.0) > RECIPROCITY_TOL:
                return (f"reciprocity violated at ({i + 1},{j + 1})/({j + 1},{i + 1}): "
                        f"{upper!r} * {lower!r} != 1")
    return None


def assert_reciprocity_matches_reference(a):
    expected = reference_reciprocity_error(a)
    if expected is None:
        assert PairwiseMatrix(a).values.tobytes() == a.tobytes()
    else:
        with pytest.raises(errors.InvalidMatrix) as exc:
            PairwiseMatrix(a)
        assert str(exc.value) == expected


@given(n=st.integers(min_value=2, max_value=20),
       seed=st.integers(min_value=0, max_value=2**31),
       perturbations=st.lists(
           st.tuples(st.integers(min_value=0, max_value=19),
                     st.integers(min_value=0, max_value=19),
                     st.sampled_from([1 + 1e-10, 1 + 1e-8, 2.0, 1e300, 1e-300])),
           max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_reciprocity_check_matches_the_row_loop_reference(n, seed, perturbations):
    a = random_reciprocal(np.random.default_rng(seed), n).values.copy()
    for i, j, factor in perturbations:
        # Python floats: an underflow to 0 or an overflow to inf never warns
        a[i % n, j % n] = float(a[i % n, j % n]) * factor
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        with pytest.raises(errors.InvalidMatrix, match="positive finite reals"):
            PairwiseMatrix(a)
    else:
        assert_reciprocity_matches_reference(a)


@given(n=st.integers(min_value=2, max_value=20),
       k=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31),
       perturbations=st.lists(
           st.tuples(st.integers(min_value=0, max_value=7),
                     st.integers(min_value=0, max_value=19),
                     st.integers(min_value=0, max_value=19),
                     st.sampled_from([1 + 1e-10, 1 + 1e-8, 2.0, 1e300, 1e-300])),
           max_size=4))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_pairwise_matrices_checks_the_stack_like_each_matrix(n, k, seed, perturbations):
    rng = np.random.default_rng(seed)
    arrays = [random_reciprocal(rng, n).values.copy() for _ in range(k)]
    for m, i, j, factor in perturbations:
        a = arrays[m % k]
        a[i % n, j % n] = float(a[i % n, j % n]) * factor
    first_fault = None
    for index, a in enumerate(arrays):
        try:
            PairwiseMatrix(a)
        except errors.InvalidMatrix as e:
            first_fault = (index, str(e))
            break
    if first_fault is not None:
        with pytest.raises(errors.InvalidMatrix) as exc:
            pairwise_matrices(arrays)
        assert (exc.value.index, str(exc.value)) == first_fault
        return
    matrices = pairwise_matrices(arrays)
    assert [m.values.tobytes() for m in matrices] == [a.tobytes() for a in arrays]
    for m in matrices:
        assert isinstance(m, PairwiseMatrix) and m.order == n
        assert not m.values.flags.writeable
        with pytest.raises(ValueError):
            m.values.setflags(write=True)


def test_reciprocity_non_unit_diagonal_is_located():
    a = consistent_matrix(np.random.default_rng(5), 3).values.copy()
    a[1, 1] = 2.0
    with pytest.raises(errors.InvalidMatrix) as exc:
        PairwiseMatrix(a)
    assert str(exc.value) == "reciprocity violated at (2,2)/(2,2): 2.0 * 2.0 != 1"
    assert_reciprocity_matches_reference(a)


def test_reciprocity_reports_only_the_row_major_first_violation():
    # (2,2) comes first in column order, (1,3) in row order; the bad cell of
    # the (1,3) pair is in the lower triangle
    a = consistent_matrix(np.random.default_rng(6), 3).values.copy()
    a[1, 1] = 3.0
    a[2, 0] = 4.0
    with pytest.raises(errors.InvalidMatrix) as exc:
        PairwiseMatrix(a)
    assert str(exc.value) == (f"reciprocity violated at (1,3)/(3,1): "
                              f"{float(a[0, 2])!r} * 4.0 != 1")
    assert_reciprocity_matches_reference(a)


def test_matrix_is_read_only():
    m = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        m.values[0, 1] = 3.0
    # no array under the checked cells can be made writeable again
    stacked = pairwise_matrices([m.values, np.array([[1.0, 4.0], [0.25, 1.0]])])[1]
    for checked in (m, stacked, aggregate_geometric([m, stacked])):
        a = checked.values
        while isinstance(a, np.ndarray):
            with pytest.raises(ValueError):
                a.setflags(write=True)
            a = a.base


NOT_NUMBERS = "got a ragged row or a cell that is not a number"
GOOD = [[1.0, 2.0], [0.5, 1.0]]
BIG = [[10**400, 1.0], [1.0, 1.0]]  # an int beyond float


@pytest.mark.parametrize("build, message", [
    (lambda: pairwise_matrices([[["x", 1.0], [1.0, 1.0]]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices([[[1.0, 2.0], [0.5]]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices([[[{"a": 1}, 1.0], [1.0, 1.0]]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix([["x", 1.0], [1.0, 1.0]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix([["x", 1.0], [1.0, 1.0]], ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices(5), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices(None), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices("ab"), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices(a for a in [GOOD]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices([]), "expected a stack of square matrices, got shapes []"),
    (lambda: pairwise_matrices([1.0, 2.0]),
     "expected a stack of square matrices, got shapes [()]"),
    (lambda: pairwise_matrices(GOOD), "expected a stack of square matrices, got shapes [(2,)]"),
    (lambda: pairwise_matrices([[GOOD]]),
     "expected a stack of square matrices, got shapes [(1, 2, 2)]"),
    (lambda: pairwise_matrices([GOOD, np.ones((3, 3))]),
     "expected a stack of square matrices, got shapes [(2, 2), (3, 3)]"),
    (lambda: PairwiseMatrix(5), "expected a stack of square matrices, got shapes [()]"),
    (lambda: PairwiseMatrix(None), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix([[1.0, 2.0], [0.5]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix(5, ["a", "b"]), "expected a 2-D matrix, got shape ()"),
    (lambda: DecisionMatrix((row for row in GOOD), ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix([GOOD], ["a", "b"]), "expected a 2-D matrix, got shape (1, 2, 2)"),
    (lambda: DecisionMatrix([[1.0, 2.0], [0.5]], ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
], ids=["stack-string-cell", "stack-ragged-row", "stack-object-cell",
        "matrix-string-cell", "decision-string-cell", "stack-number", "stack-none",
        "stack-str", "stack-generator", "stack-empty", "stack-1d", "stack-2d", "stack-4d",
        "stack-mixed-shapes", "matrix-number", "matrix-none", "matrix-ragged-row",
        "decision-number", "decision-generator", "decision-3d", "decision-ragged-row"])
def test_cells_that_are_not_numbers_are_invalid_matrices(build, message):
    with pytest.raises(errors.InvalidMatrix) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: PairwiseMatrix([["1", "2"], ["0.5", True]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix([[1.0, 2.0], [0.5, True]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices([[[1.0, b"2"], [0.5, 1.0]]]),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix(np.array([["1", "2"], ["0.5", "1"]])),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix(np.ones((2, 2), dtype=bool)),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices(np.array([[[1.0, 2.0], [0.5, 1.0]]], dtype=object)),
     f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix([["1", " 2 "], [True, "4"]], ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix([[1.0, 2.0], [True, 4.0]], ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix(np.array([[b"1", b"2"], [b"3", b"4"]]), ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix(np.ones((2, 2), dtype=bool), ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix(np.ones((2, 2), dtype=object), ["a", "b"]),
     f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
    (lambda: pairwise_matrices([BIG]), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: PairwiseMatrix(BIG), f"expected square matrices of numbers, {NOT_NUMBERS}"),
    (lambda: DecisionMatrix(BIG, ["a", "b"]), f"expected a 2-D matrix of numbers, {NOT_NUMBERS}"),
], ids=["matrix-numeric-strings", "matrix-bool-cell", "stack-bytes-cell",
        "matrix-str-array", "matrix-bool-array", "stack-object-array",
        "decision-numeric-strings", "decision-bool-cell", "decision-bytes-array",
        "decision-bool-array", "decision-object-array", "stack-big-int", "matrix-big-int",
        "decision-big-int"])
def test_matrix_constructors_take_numbers_only(build, message):
    # the loaders' rule: a numeric string or a bool is not a number
    with pytest.raises(errors.InvalidMatrix) as exc:
        build()
    assert str(exc.value) == message


def test_matrix_constructors_take_number_arrays_and_scalars():
    ints = DecisionMatrix(np.array([[1, 2], [3, 4]], dtype=np.int32), ["a", "b"])
    assert ints.values.dtype == float and ints.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    m = PairwiseMatrix([[np.float64(1.0), np.int64(2)], [0.5, 1]])
    assert m.values.tolist() == [[1.0, 2.0], [0.5, 1.0]]
    assert number_cells(np.empty((3, 3), dtype=np.float32))
    assert not number_cells([np.ones((2, 2)), np.ones((2, 2), dtype=np.bool_)])


def test_aggregate_geometric_mean_of_two():
    a = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    b = PairwiseMatrix(np.array([[1.0, 8.0], [0.125, 1.0]]))
    g = aggregate_geometric([a, b])
    # geometric mean sqrt(2 * 8) = 4
    assert g.values[0, 1] == pytest.approx(4.0, rel=1e-12)
    assert g.values[1, 0] == 1.0 / g.values[0, 1]


def reference_aggregate(matrices):
    """The product reference: one product over the stack, one log, / k, exp,
    then a loop over the lower triangle.  numpy reduces axis 0 in list
    order, one multiply per expert, as the aggregate's running product."""
    stack = np.stack([m.values for m in matrices])
    mean = np.exp(np.log(np.prod(stack, axis=0)) / len(matrices))
    n = mean.shape[0]
    for i in range(n):
        mean[i, i] = 1.0
        for j in range(i + 1, n):
            mean[j, i] = 1.0 / mean[i, j]
    return mean


def assert_reciprocal_and_untouched(panel, before, v):
    upper = np.triu_indices(len(v), 1)
    assert np.array_equal(v.T[upper], 1.0 / v[upper])
    assert np.all(np.diag(v) == 1.0)
    assert [m.values.tobytes() for m in panel] == before


@pytest.mark.parametrize("n,k", [(2, 1), (14, 2), (14, 256), (200, 8),
                                 (2, 1000), (3, 257)])
def test_aggregate_geometric_matches_the_loop_reference_bit_for_bit(n, k):
    rng = np.random.default_rng([n, k])
    judgments = [random_reciprocal(rng, n).values for _ in range(k)]
    upper = np.triu_indices(n, 1)
    # at scale 1.0 no product overflows, and the aggregate is the product
    # reference to the bit; at scale 1e300 every product of two or more
    # experts overflows and the split runs.  There the upper cells are near
    # 1e300 and the lower ones near 1e-300: an overflow or a log of an
    # underflowed 0 would raise a RuntimeWarning, which pytest turns into an
    # error
    for scale in (1.0, 1e300):
        panel = [a.copy() for a in judgments]
        for a in panel:
            a[upper] *= scale
            a[upper[::-1]] = 1.0 / a[upper]
        panel[0][0, 0] = 1 + 1e-10  # within the reciprocity tolerance
        panel = [PairwiseMatrix(a) for a in panel]
        before = [m.values.tobytes() for m in panel]
        v = aggregate_geometric(panel).values
        assert PairwiseMatrix(v).values.tobytes() == v.tobytes()
        if scale == 1.0 or k == 1:
            assert v.tobytes() == reference_aggregate(panel).tobytes()
        assert_reciprocal_and_untouched(panel, before, v)


def noisy_reciprocal_panel(rng, n, experts, sigma):
    """Reciprocal matrices scattered log-normally around one consistent
    base, drawn as the benchmark's panels are."""
    w = np.exp(rng.uniform(-1.5, 1.5, size=n))
    log_base = np.log(w)[:, None] - np.log(w)[None, :]
    noise = rng.normal(0.0, sigma, size=(experts, n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    out = np.ones((experts, n, n))
    values = np.exp(log_base + noise)
    out[:, upper] = values[:, upper]
    out.transpose(0, 2, 1)[:, upper] = 1.0 / values[:, upper]
    return [PairwiseMatrix(a) for a in out]


def worst_ulps(matrices, v, cells):
    """The largest distance, in ulps, of v's cells from a 40-digit decimal
    geometric mean of the experts' cells."""
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for i, j in cells:
            product = decimal.Decimal(1)
            for m in matrices:
                product *= decimal.Decimal(float(m.values[i, j]))
            exact = (product.ln() / len(matrices)).exp()
            error = abs(decimal.Decimal(float(v[i, j])) - exact)
            worst = max(worst, float(error / decimal.Decimal(math.ulp(float(exact)))))
    return worst


def upper_cells(n, every=1):
    """Every ``every``-th cell above the diagonal, in row order."""
    i, j = np.triu_indices(n, 1)
    return list(zip(i[::every].tolist(), j[::every].tolist()))


def example_panel():
    doc = json.loads(example_input_text("matrices.json"))
    return pairwise_matrices([e["matrix"] for e in doc["experts"]])


# name: (panel, the step between the upper cells the oracle checks).  Over
# all upper cells, a running sum of k logs, the former kernel, is 4.9-6.6
# ulps off on the 200 x 8 panels of seeds 1-8 and 9-25 ulps on the 14 x 256
# ones of seeds 1-14; the product is within 2.7, and within 3.8 where the
# split adds the logs of two halves, which rounds at the scale of the logs
# twice more.  The example is 2.0 ulps off either way.
ORACLE_CASES = {
    "example": (example_panel, 1),
    "wide-200x8": (lambda: noisy_reciprocal_panel(np.random.default_rng([1, 3]), 200, 8, 0.2),
                   50),
    "panel-14x256": (lambda: noisy_reciprocal_panel(np.random.default_rng([1, 1]), 14, 256, 0.4),
                     1),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_aggregate_geometric_is_within_ulps_of_a_decimal_oracle(case):
    build, every = ORACLE_CASES[case]
    panel = build()
    v = aggregate_geometric(panel).values
    assert worst_ulps(panel, v, upper_cells(len(v), every)) <= 3.0


def test_aggregate_geometric_splits_an_overflowing_product():
    # 20**300 overflows, so the product of 300 copies is split, down to
    # halves of 150 (20**150 ~ 1e195); the geometric mean of copies is 20
    a = np.ones((3, 3))
    a[0, 2], a[2, 0] = 20.0, 1 / 20.0
    a[0, 1], a[1, 0] = 1 / 3.0, 3.0
    copies = [PairwiseMatrix(a)] * 300
    before = [m.values.tobytes() for m in copies]
    v = aggregate_geometric(copies).values
    assert_reciprocal_and_untouched(copies, before, v)
    assert worst_ulps(copies, v, upper_cells(3)) <= 4.0


def test_aggregate_geometric_split_on_an_expert_panel():
    # the draw of the benchmark's expert-panel at seed 4: the largest log-sum
    # of a cell over its 256 experts is 718, past the 709.78 at which a
    # double overflows
    panel = noisy_reciprocal_panel(np.random.default_rng([4, 1]), 14, 256, 0.4)
    stack = np.stack([m.values for m in panel])
    assert np.abs(np.log(stack).sum(axis=0)).max() > math.log(np.finfo(float).max)
    before = [m.values.tobytes() for m in panel]
    v = aggregate_geometric(panel).values
    assert_reciprocal_and_untouched(panel, before, v)
    assert worst_ulps(panel, v, upper_cells(14)) <= 4.0


def test_aggregate_geometric_of_one_matrix_is_exp_of_log():
    rng = np.random.default_rng(11)
    m = random_reciprocal(rng, 6)
    v = aggregate_geometric([m]).values
    upper = np.triu_indices(6, 1)
    assert v[upper].tobytes() == np.exp(np.log(m.values))[upper].tobytes()


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(errors.EmptyInput):
        aggregate_geometric([])
    a = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    c = PairwiseMatrix(np.ones((3, 3)))
    with pytest.raises(errors.OrderMismatch):
        aggregate_geometric([a, c])
    # reciprocal within the tolerance, but 1 / the subnormal mean overflows:
    # the final check refuses it, with no RuntimeWarning on the way
    tiny = PairwiseMatrix([[1.0, 5.5626846462678e-309], [1.7976931348623157e+308, 1.0]])
    with pytest.raises(errors.InvalidMatrix) as exc:
        aggregate_geometric([tiny])
    assert str(exc.value) == "all entries must be positive finite reals"
    assert exc.value.index == 0


def test_aggregate_geometric_checks_soundness_only(monkeypatch):
    # reciprocal by construction: the aggregate skips the full stack check
    panel = noisy_reciprocal_panel(np.random.default_rng([1, 1]), 20, 8, 0.2)

    def no_check(a):
        raise AssertionError("aggregate_geometric re-ran the stack check")

    monkeypatch.setattr(ahp, "_check_stack", no_check)
    v = aggregate_geometric(panel).values
    assert not v.flags.writeable
    monkeypatch.undo()
    assert PairwiseMatrix(v).values.tobytes() == v.tobytes()


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


@pytest.mark.parametrize("order", [2, 3])
def test_consistency_holds_every_order_to_the_ri_rule(order):
    # the rule load_ri_table applies; a NaN or infinite RI let through here
    # would reach the report's JSON as NaN or Infinity, which are not JSON
    m = PairwiseMatrix(np.ones((order, order)))
    for ri in (-5.0, -math.inf, math.inf, math.nan):
        with pytest.raises(errors.MissingRI, match=f"^random index for order {order} must be"):
            consistency(m, ri_table={order: ri})
    assert consistency(m, ri_table={order: 1.5}).cr == 0.0
    if order <= 2:
        assert consistency(m, ri_table={order: 0.0}).ri == 0.0
    else:
        with pytest.raises(errors.MissingRI, match="must be positive and finite, got 0.0$"):
            consistency(m, ri_table={order: 0.0})


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
