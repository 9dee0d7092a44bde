"""Expert pairwise-comparison matrices: geometric-mean aggregation and the
consistency gate.

The consistency index divides by the matrix order by default ("paper"
mode); the conventional Saaty denominator of order-1 is available as
"standard" mode.  Both are recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class PairwiseMatrix:
    """A positive reciprocal judgment matrix (a_ij = 1/a_ji, unit diagonal)."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise InvalidMatrix(f"order must be at least 2, got {n}")
        if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise InvalidMatrix("all entries must be positive finite reals")
        # an overflow to inf fails the check as it should, without a warning
        with np.errstate(over="ignore", under="ignore"):
            bad = np.abs(a * a.T - 1.0) > RECIPROCITY_TOL
        if bad.any():
            i, j = np.argwhere(np.triu(bad))[0]  # first in row order
            raise InvalidMatrix(
                f"reciprocity violated at ({i + 1},{j + 1})/({j + 1},{i + 1}): "
                f"{float(a[i, j])!r} * {float(a[j, i])!r} != 1")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def order(self) -> int:
        return self.values.shape[0]


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
        return {
            "order": self.order,
            "lambda_max": self.lambda_max,
            "ci": self.ci,
            "ri": self.ri,
            "cr": self.cr,
            "acceptable": self.acceptable,
            "denominator_mode": self.denominator_mode,
        }


def aggregate_geometric(matrices: Sequence[PairwiseMatrix]) -> PairwiseMatrix:
    """Entrywise geometric mean of expert matrices.

    Each cell is exp of the mean of the experts' logs.  The mean of
    reciprocal matrices is reciprocal (Aczel & Saaty 1983); the diagonal is
    set to 1 and the lower triangle to 1 / the upper one, so the result is
    reciprocal to the last bit.  The input matrices are not modified.
    """
    if len(matrices) == 0:
        raise EmptyInput("need at least one matrix to aggregate")
    n = matrices[0].order
    for pos, m in enumerate(matrices):
        if m.order != n:
            raise OrderMismatch(f"matrix {pos} has order {m.order}, expected {n}")
    stack = np.stack([m.values for m in matrices])  # a fresh copy, so log in place
    mean = np.exp(np.log(stack, out=stack).mean(axis=0))
    upper = np.triu_indices(n, 1)
    mean[upper[::-1]] = 1.0 / mean[upper]
    np.fill_diagonal(mean, 1.0)
    return PairwiseMatrix(mean)


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
    "standard" by n - 1.  Orders 1 and 2 are always consistent (CR = 0);
    a higher order needs a positive finite RI, else MissingRI.
    """
    if denominator_mode not in CI_DENOMINATOR_MODES:
        raise ValueError(f"denominator_mode must be one of {CI_DENOMINATOR_MODES}, "
                         f"got {denominator_mode!r}")
    table = DEFAULT_RI if ri_table is None else ri_table
    n = m.order
    if n not in table:
        raise MissingRI(f"no random index for order {n}")
    ri = float(table[n])
    if n > 2 and not 0.0 < ri < math.inf:
        raise MissingRI(f"random index for order {n} must be positive and "
                        f"finite, got {ri!r}")
    lambda_max = principal_eigenvalue(m)
    denominator = n if denominator_mode == "paper" else n - 1
    ci = (lambda_max - n) / denominator
    cr = 0.0 if n <= 2 else ci / ri
    return ConsistencyReport(order=n, lambda_max=lambda_max, ci=ci, ri=ri,
                             cr=cr, acceptable=cr < CR_THRESHOLD,
                             denominator_mode=denominator_mode)
