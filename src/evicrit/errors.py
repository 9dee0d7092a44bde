"""Exception hierarchy shared by all evicrit modules.

Every library error derives from :class:`EvicritError`.  The pipeline
annotates exceptions it re-raises with the name of the stage that failed
(``stage`` attribute) so the CLI can point at the right place.
"""

from __future__ import annotations


class EvicritError(Exception):
    """Base class for all evicrit errors."""

    stage: str | None = None


# --- mass functions -------------------------------------------------------

class MassOutOfRange(EvicritError):
    """A belief mass lies outside [0, 1]."""


class MassSumInvalid(EvicritError):
    """Belief masses do not sum to 1 within tolerance."""


class NonzeroEmptySet(EvicritError):
    """The empty set carries positive mass."""


class FrameMismatch(EvicritError):
    """A focal set reaches outside the frame its fixture declares."""


class TotalConflict(EvicritError):
    """Two bodies of evidence are fully conflicting; combination undefined."""

    def __init__(self, message: str, conflict_k: float | None = None):
        super().__init__(message)
        self.conflict_k = conflict_k


# --- matrices and weighting -----------------------------------------------

class EmptyInput(EvicritError):
    """An operation received an empty collection."""


class OrderMismatch(EvicritError):
    """Matrices (or a matrix and its labels) disagree on order."""


class InvalidMatrix(EvicritError):
    """A matrix fails validation (shape, positivity, or reciprocity)."""

    #: position of the failing matrix in a stack of matrices checked at once
    index: int | None = None


class NoConvergence(EvicritError):
    """Power iteration hit its iteration cap without converging."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class MissingRI(EvicritError):
    """The random-index table has no usable entry for the requested order."""


class ZeroColumn(EvicritError):
    """A decision-matrix column sums to zero and cannot be normalized."""


class DegenerateRows(EvicritError):
    """Too few rows for entropy scaling (needs at least two)."""


class AllZeroDivergence(EvicritError):
    """Every column is uniform, so entropy weights are undefined."""


class DegeneratePriors(EvicritError):
    """A prior is not a nonnegative finite number, or priors zero out every column."""


# --- scores and fuzzification ----------------------------------------------

class ScoreOutOfRange(EvicritError):
    """A score is not a number or lies outside the [0, 10] scale."""


class DiscountOutOfRange(EvicritError):
    """A reliability discount factor is not a number or lies outside [0, 1]."""


# --- ingestion and orchestration --------------------------------------------

class ParseError(EvicritError):
    """An input file is malformed; the message locates the offending part."""


class MissingIndicator(EvicritError):
    """An input file omits one or more indicators that the matrices file lists."""


class UnknownIndicator(EvicritError):
    """An input file names an indicator that the matrices file does not list."""


class InconsistentMatrix(EvicritError):
    """Aggregated judgments failed the consistency gate (CR >= 0.1)."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(EvicritError):
    """A pipeline configuration value is invalid."""


class IoError(EvicritError):
    """Reading an input or writing an output failed."""
