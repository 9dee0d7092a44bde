"""Shannon-entropy criterion weighting.

Column entropies are scaled by 1/ln(m) so they land in [0, 1]; divergence
d = 1 - E measures how much a criterion discriminates, and weights are
divergences normalized to unit sum.  Prior (subjective) weights can be
blended in multiplicatively.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

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
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2:
            raise InvalidMatrix(f"expected a 2-D matrix, got shape {a.shape}")
        m, n = a.shape
        if m < 2:
            raise DegenerateRows(f"need at least 2 rows, got {m}")
        if n < 2:
            raise InvalidMatrix(f"need at least 2 columns, got {n}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise InvalidMatrix("entries must be nonnegative finite reals")
        zero_cols = np.flatnonzero(a.sum(axis=0) == 0.0)
        if zero_cols.size:
            raise ZeroColumn(f"column {zero_cols[0] + 1} sums to zero")
        ids = tuple(self.ids)
        if len(ids) != n:
            raise InvalidMatrix(f"{len(ids)} column ids for {n} columns")
        if len(set(ids)) != n:
            raise InvalidMatrix("column ids must be unique")
        a = a.copy()
        a.setflags(write=False)
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
    safe = np.where(p > 0.0, p, 1.0)
    terms = np.where(p > 0.0, p * np.log(safe), 0.0)
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
    """Per-indicator entropy, divergence, weight, and (optional) adjusted weight."""

    ids: tuple[str, ...]
    entropy: tuple[float, ...]
    div: tuple[float, ...]
    weights: tuple[float, ...]
    priors: tuple[float, ...] | None = None
    adjusted: tuple[float, ...] | None = None

    CSV_HEADER = ("indicator", "E", "d", "W", "lambda", "W_adj")

    def rows(self) -> list[dict]:
        out = []
        for j, indicator_id in enumerate(self.ids):
            out.append({
                "indicator": indicator_id,
                "E": self.entropy[j],
                "d": self.div[j],
                "W": self.weights[j],
                "lambda": None if self.priors is None else self.priors[j],
                "W_adj": None if self.adjusted is None else self.adjusted[j],
            })
        return out

    def to_csv(self) -> str:
        from .report import csv_text  # on first use: `import evicrit` skips report

        return csv_text(self.CSV_HEADER, ((
            row["indicator"],
            repr(row["E"]), repr(row["d"]), repr(row["W"]),
            "" if row["lambda"] is None else repr(row["lambda"]),
            "" if row["W_adj"] is None else repr(row["W_adj"]),
        ) for row in self.rows()))

    @classmethod
    def from_csv(cls, text: str) -> "EntropyTable":
        reader = csv.reader(io.StringIO(text))
        header = tuple(next(reader))
        if header != cls.CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        ids, e, d, w, lam, adj = [], [], [], [], [], []
        for row in reader:
            ids.append(row[0])
            e.append(float(row[1]))
            d.append(float(row[2]))
            w.append(float(row[3]))
            lam.append(float(row[4]) if row[4] else None)
            adj.append(float(row[5]) if row[5] else None)
        has_priors = any(v is not None for v in lam)
        return cls(ids=tuple(ids), entropy=tuple(e), div=tuple(d), weights=tuple(w),
                   priors=tuple(lam) if has_priors else None,
                   adjusted=tuple(adj) if has_priors else None)


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
        missing = [i for i in d.ids if i not in priors]
        if missing:
            raise DegeneratePriors(f"no prior for {missing[0]}")
        lam = np.array([float(priors[i]) for i in d.ids])
        adjusted_arr = adjust_weights(w, lam)
        lam_tuple = tuple(float(v) for v in lam)
        adjusted = tuple(float(v) for v in adjusted_arr)
    return EntropyTable(ids=d.ids,
                        entropy=tuple(float(v) for v in e),
                        div=tuple(float(v) for v in dv),
                        weights=tuple(float(v) for v in w),
                        priors=lam_tuple, adjusted=adjusted)
