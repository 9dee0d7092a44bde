"""Expert pairwise-comparison matrices: geometric-mean aggregation and the
consistency gate.

The consistency index divides by the matrix order by default ("paper" mode);
the conventional Saaty denominator of order-1 is "standard" mode.  Both are
recorded in the report.  Matrix cells and RI values follow ``core.number``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import number
from .errors import (
    EmptyInput,
    InvalidMatrix,
    MissingRI,
    NoConvergence,
    OrderMismatch,
)

#: a_ij * a_ji must equal 1 within this tolerance
RECIPROCITY_TOL = 1e-9

#: published random indices for orders 1..10 (override via a JSON table file)
DEFAULT_RI: dict[int, float] = {
    1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
    6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49,
}

#: CR below this passes the gate
CR_THRESHOLD = 0.1

CI_DENOMINATOR_MODES = ("paper", "standard")


def valid_ri(order: int, ri: float) -> bool:
    """The random-index rule: orders 1 and 2 take 0 or a positive finite RI,
    a higher order a positive finite RI, because CR = CI / RI."""
    return 0.0 < ri < math.inf or (ri == 0.0 and order <= 2)


@dataclass(frozen=True, eq=False)
class PairwiseMatrix:
    """A positive reciprocal judgment matrix (a_ij = 1/a_ji, unit diagonal)."""

    values: np.ndarray

    def __post_init__(self):
        # one matrix is a stack of one: an ndarray's [None] needs no copy;
        # other input stays a list, so number_cells still judges each cell
        values = self.values
        stack = values[None] if isinstance(values, np.ndarray) else [values]
        object.__setattr__(self, "values", pairwise_matrices(stack)[0].values)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _check_stack(a: np.ndarray) -> None:
    """Check a (k, n, n) stack of judgment matrices as one array, in one pass.

    Raises the InvalidMatrix of the first failing matrix, with its position
    in the stack as ``index``.  A matrix fails on the first rule it breaks:
    order at least 2, then positive finite entries, then reciprocity, whose
    error names the first violation in row order of the upper triangle.
    """
    n = a.shape[1]
    if n < 2:
        raise InvalidMatrix(f"order must be at least 2, got {n}", index=0)
    unsound = ~((a > 0.0) & (a < math.inf)).all(axis=(1, 2))
    # an overflow to inf fails the check as it should, and an unsound
    # matrix's inf * 0.0 is refused for its cells, both without a warning
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        bad = np.abs(a * a.transpose(0, 2, 1) - 1.0) > RECIPROCITY_TOL
    hit = unsound | bad.any(axis=(1, 2))
    if not hit.any():
        return
    index = int(hit.argmax())
    message = "all entries must be positive finite reals"
    if not unsound[index]:
        i, j = np.argwhere(np.triu(bad[index]))[0]
        message = (f"reciprocity violated at ({i + 1},{j + 1})/({j + 1},{i + 1}): "
                   f"{float(a[index, i, j])!r} * {float(a[index, j, i])!r} != 1")
    raise InvalidMatrix(message, index=index)


NOT_NUMBERS = "got a ragged row or a cell that is not a number"


def number_cells(values) -> bool:
    """Whether every cell of ``values`` is a number: the one number rule of
    the matrix constructors.

    An ndarray is judged by its dtype alone: float and integer arrays pass;
    str, bytes, bool and object arrays do not.  A list or tuple passes when
    each of its items does.  Any other cell must be a number by
    ``core.number``'s rule and fit a float.
    """
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "fiu"
    if isinstance(values, (list, tuple)):
        return all(map(number_cells, values))
    try:
        number(values)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False
    return True


def frozen_cells(values, what: str) -> np.ndarray:
    """The matrix constructors' one intake: ``values`` as floats, one copy
    held in immutable bytes, so no array under it can be made writeable.  A
    cell that ``number_cells`` does not take, or a ragged row, raises
    InvalidMatrix: "expected {what} of numbers, ..."."""
    try:
        a = np.asarray(values, dtype=float) if number_cells(values) else None
    except ValueError:  # a ragged row
        a = None
    if a is None:
        raise InvalidMatrix(f"expected {what} of numbers, {NOT_NUMBERS}")
    return np.frombuffer(a.tobytes()).reshape(a.shape)


def pairwise_matrices(arrays: Sequence[np.ndarray]) -> list[PairwiseMatrix]:
    """One PairwiseMatrix per array, checked together as one stack.

    The arrays share one square shape; a (k, n, n) array is k of them.  They
    go through ``frozen_cells`` once, as one stack.  A failing matrix raises
    its InvalidMatrix, with its position in ``arrays`` as ``index``.  Each
    matrix returned is a read-only view of the checked copy.
    """
    what = "square matrices"
    try:
        stack = frozen_cells(arrays, what)
    except InvalidMatrix:
        if not number_cells(arrays):
            raise
        stack = None  # ragged as a stack: its matrices may still be numbers
    if stack is None or stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        try:
            shapes = sorted({frozen_cells(a, what).shape for a in arrays})
        except TypeError:  # a single number
            raise InvalidMatrix(f"expected {what} of numbers, {NOT_NUMBERS}") from None
        raise InvalidMatrix(f"expected a stack of square matrices, got shapes {shapes}")
    _check_stack(stack)
    return [_checked(values) for values in stack]


def _checked(values: np.ndarray) -> PairwiseMatrix:
    """A PairwiseMatrix of frozen ``values`` that its caller has checked."""
    m = object.__new__(PairwiseMatrix)
    object.__setattr__(m, "values", values)
    return m


@dataclass(frozen=True)
class ConsistencyReport:
    """lambda_max and the derived CI/CR verdict for one matrix."""

    order: int
    lambda_max: float
    ci: float
    ri: float
    cr: float
    acceptable: bool
    denominator_mode: str

    def to_dict(self) -> dict:
        return asdict(self)


def _log_product(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Cellwise log of the product of ``arrays``; see aggregate_geometric."""
    product = arrays[0].copy()
    with np.errstate(over="ignore", under="ignore"):
        for a in arrays[1:]:
            product *= a
    if np.isfinite(product).all():
        return np.log(product, out=product)
    half = len(arrays) // 2
    return _log_product(arrays[:half]) + _log_product(arrays[half:])


def aggregate_geometric(matrices: Sequence[PairwiseMatrix]) -> PairwiseMatrix:
    """Entrywise geometric mean of expert matrices: exp(log(P) / k).

    P is the product of the k experts' cells in list order, one log per
    cell; where P leaves the float range, the list is split in halves whose
    logs are added.  One finite check suffices: as the matrices are
    reciprocal to 1e-9, a running product falls over two bits below the
    normal range only when its mirror's overflows to inf, which stays inf.
    P is within k - 1 rounding units of the exact product (Higham 2002): the
    result is within 3 ulps of a 40-digit mean in the tests, 4 with a split.
    The lower triangle is set to 1 / the upper one and the diagonal to 1, so
    the mean is reciprocal by construction (Aczel & Saaty 1983) and only its
    cells' soundness is checked.  Inputs are not modified.
    """
    if len(matrices) == 0:
        raise EmptyInput("need at least one matrix to aggregate")
    n = matrices[0].order
    for pos, m in enumerate(matrices):
        if m.order != n:
            raise OrderMismatch(f"matrix {pos} has order {m.order}, expected {n}")
    total = _log_product([m.values for m in matrices])
    total /= len(matrices)
    mean = np.exp(total, out=total)
    # a reciprocal of a subnormal mean overflows to inf, which the test refuses
    with np.errstate(over="ignore"):
        np.divide(1.0, mean.T, out=mean, where=np.tri(n, k=-1, dtype=bool))
    np.fill_diagonal(mean, 1.0)
    if not ((mean > 0.0) & (mean < math.inf)).all():
        raise InvalidMatrix("all entries must be positive finite reals", index=0)
    return _checked(frozen_cells(mean, "square matrices"))


def principal_eigenvalue(m: PairwiseMatrix) -> float:
    """Dominant eigenvalue of a positive matrix by power iteration.

    Starts from the uniform vector and stops when successive eigenvalue
    estimates differ by at most 1e-12.  Positive matrices have a simple
    dominant eigenvalue, so the iteration converges; hitting the cap of
    10,000 steps is reported as an error carrying the last estimate.
    """
    a = m.values
    n = m.order
    x = np.full(n, 1.0 / n)
    estimate = math.inf
    for _ in range(10_000):
        y = a @ x
        total = float(y.sum())
        new_estimate = total  # x sums to 1 and stays positive
        x = y / total
        if abs(new_estimate - estimate) <= 1e-12:
            return new_estimate
        estimate = new_estimate
    raise NoConvergence(
        "power iteration did not converge in 10000 iterations "
        f"(last estimate {estimate!r})", last_estimate=estimate)


def consistency(m: PairwiseMatrix, ri_table: Mapping[int, float] | None = None,
                denominator_mode: str = "paper") -> ConsistencyReport:
    """Consistency report: CI = (lambda_max - n) / denominator, CR = CI / RI.

    ``denominator_mode`` picks the CI denominator: "paper" divides by n,
    "standard" by n - 1.  Orders 1 and 2 are always consistent (CR = 0).
    An RI outside ``valid_ri`` is MissingRI.
    """
    if denominator_mode not in CI_DENOMINATOR_MODES:
        raise ValueError(f"denominator_mode must be one of {CI_DENOMINATOR_MODES}, "
                         f"got {denominator_mode!r}")
    table = DEFAULT_RI if ri_table is None else ri_table
    n = m.order
    if n not in table:
        raise MissingRI(f"no random index for order {n}")
    ri = number(table[n], MissingRI, f"random index for order {n}")
    if not valid_ri(n, ri):
        allowed = "0 or positive and finite" if n <= 2 else "positive and finite"
        raise MissingRI(f"random index for order {n} must be {allowed}, got {ri!r}")
    lambda_max = principal_eigenvalue(m)
    denominator = n if denominator_mode == "paper" else n - 1
    ci = (lambda_max - n) / denominator
    cr = 0.0 if n <= 2 else ci / ri
    return ConsistencyReport(order=n, lambda_max=lambda_max, ci=ci, ri=ri,
                             cr=cr, acceptable=cr < CR_THRESHOLD,
                             denominator_mode=denominator_mode)
