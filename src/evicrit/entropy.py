"""Shannon-entropy criterion weighting.

Column entropies are scaled by 1/ln(m) so they land in [0, 1]; divergence
d = 1 - E measures how much a criterion discriminates, and weights are
divergences normalized to unit sum.  Prior (subjective) weights can be
blended in multiplicatively.  The weighting table's columns have one
definition, ``EntropyTable.COLUMNS`` with ``EntropyTable.columns()``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ahp import frozen_cells
from .core import number
from .errors import (
    AllZeroDivergence,
    DegeneratePriors,
    DegenerateRows,
    InvalidMatrix,
    ZeroColumn,
)


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Nonnegative criterion data: one column per indicator, one row per judgment."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        a = frozen_cells(self.values, "a 2-D matrix")
        if a.ndim != 2:
            raise InvalidMatrix(f"expected a 2-D matrix, got shape {a.shape}")
        m, n = a.shape
        if m < 2:
            raise DegenerateRows(f"need at least 2 rows, got {m}")
        if n < 2:
            raise InvalidMatrix(f"need at least 2 columns, got {n}")
        if not ((a >= 0.0) & (a < math.inf)).all():  # NaN and ±inf fail
            raise InvalidMatrix("entries must be nonnegative finite reals")
        zero_cols = np.flatnonzero(a.sum(axis=0) == 0.0)
        if zero_cols.size:
            raise ZeroColumn(f"column {zero_cols[0] + 1} sums to zero")
        ids = tuple(self.ids)
        if len(ids) != n:
            raise InvalidMatrix(f"{len(ids)} column ids for {n} columns")
        if len(set(ids)) != n:
            raise InvalidMatrix("column ids must be unique")
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "ids", ids)


def column_normalize(d: DecisionMatrix) -> np.ndarray:
    """Share of each entry within its column; every column sums to 1."""
    sums = d.values.sum(axis=0)
    return d.values / sums


def entropy_values(p: np.ndarray) -> np.ndarray:
    """Scaled Shannon entropy per column: -sum(p ln p) / ln(m), in [0, 1].

    Zero entries contribute zero (the 0 ln 0 = 0 convention).  Columns whose
    entries are all equal return exactly 1.0 so the uniform case is not
    blurred by rounding, and rounding overshoot past either end is clamped,
    so d = 1 - E is never negative.
    """
    p = np.asarray(p, dtype=float)
    m = p.shape[0]
    if m < 2:
        raise DegenerateRows(f"entropy scaling needs at least 2 rows, got {m}")
    safe = np.where(p > 0.0, p, 1.0)  # a non-positive or NaN entry adds 1 ln 1 = +0.0
    terms = safe * np.log(safe)
    e = np.clip(-terms.sum(axis=0) / math.log(m), 0.0, 1.0)
    uniform = np.ptp(p, axis=0) == 0.0
    return np.where(uniform, 1.0, e)


def divergence(e: np.ndarray) -> np.ndarray:
    """Deviation degree d = 1 - E of each column."""
    return 1.0 - np.asarray(e, dtype=float)


def entropy_weights(d: np.ndarray) -> np.ndarray:
    """Divergences normalized to unit sum."""
    d = np.asarray(d, dtype=float)
    total = d.sum()
    if total <= 0.0:
        raise AllZeroDivergence("every column is uniform; weights undefined")
    return d / total


def adjust_weights(w: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Blend prior weights in: W'_j proportional to prior_j * W_j."""
    w = np.asarray(w, dtype=float)
    lam = np.asarray(priors, dtype=float)
    if lam.shape != w.shape:
        raise DegeneratePriors(f"{lam.size} priors for {w.size} weights")
    if np.any(lam < 0.0) or not np.all(np.isfinite(lam)):
        raise DegeneratePriors("priors must be nonnegative finite reals")
    blended = lam * w
    total = blended.sum()
    if total <= 0.0:
        raise DegeneratePriors("priors zero out every weighted column")
    return blended / total


@dataclass(frozen=True)
class EntropyTable:
    """Per-indicator entropy, divergence, weight, and (optional) adjusted weight;
    ``columns()`` is the one column model behind every output of the table."""

    ids: tuple[str, ...]
    entropy: tuple[float, ...]
    div: tuple[float, ...]
    weights: tuple[float, ...]
    priors: tuple[float, ...] | None = None
    adjusted: tuple[float, ...] | None = None

    COLUMNS = ("E", "d", "W", "lambda", "W_adj")

    def columns(self) -> dict[str, tuple[float, ...] | None]:
        """Each of ``COLUMNS`` with its values; lambda and W_adj are None without priors."""
        return dict(zip(self.COLUMNS, (self.entropy, self.div, self.weights,
                                       self.priors, self.adjusted)))

    def rows(self) -> list[dict]:
        columns = self.columns().items()
        return [{"indicator": indicator_id,
                 **{name: None if values is None else values[j] for name, values in columns}}
                for j, indicator_id in enumerate(self.ids)]

    def to_csv(self) -> str:
        from .report import csv_text  # on first use: `import evicrit` skips report

        columns = self.columns().values()
        return csv_text(("indicator", *self.COLUMNS), ((
            indicator_id, *("" if values is None else repr(values[j]) for values in columns),
        ) for j, indicator_id in enumerate(self.ids)))

    @classmethod
    def from_csv(cls, text: str) -> "EntropyTable":
        """The table ``to_csv`` wrote: E, d and W need a value in every row,
        lambda and W_adj in every row or none (then they read as None)."""
        reader = csv.reader(io.StringIO(text))
        header = tuple(next(reader))
        if header != ("indicator", *cls.COLUMNS):
            raise ValueError(f"unexpected header {header}")
        # with the header in the strict zip, a row narrower or wider than it is refused
        (_, *ids), *cells = zip(header, *reader, strict=True)
        # the columns after W may be empty; float("") refuses a partly filled one
        return cls(tuple(ids), *(None if j >= 3 and not any(values) else tuple(map(float, values))
                                 for j, (_, *values) in enumerate(cells)))


def build_table(d: DecisionMatrix, priors: Mapping[str, float] | None = None,
                ) -> EntropyTable:
    """Run the full weighting chain over a decision matrix.

    ``priors`` maps indicator id to its prior weight; when given, the
    adjusted-weight column is filled in.
    """
    p = column_normalize(d)
    e = entropy_values(p)
    dv = divergence(e)
    w = entropy_weights(dv)
    lam_tuple = None
    adjusted = None
    if priors is not None:
        lam = np.empty(len(d.ids))
        for j, indicator_id in enumerate(d.ids):
            try:
                lam[j] = number(priors[indicator_id], DegeneratePriors,
                                f"prior for {indicator_id}")
            except KeyError:
                raise DegeneratePriors(f"no prior for {indicator_id}") from None
        adjusted_arr = adjust_weights(w, lam)
        lam_tuple = tuple(lam.tolist())
        adjusted = tuple(adjusted_arr.tolist())
    return EntropyTable(ids=d.ids, entropy=tuple(e.tolist()), div=tuple(dv.tolist()),
                        weights=tuple(w.tolist()), priors=lam_tuple, adjusted=adjusted)
