"""Exception hierarchy shared by all evicrit modules.

Every library error derives from :class:`EvicritError`, whose ``args[0]`` is
the bare message.  Where it happened is data: ``path``, ``line`` and
``field`` locate a fault in an input file (the pipeline's loaders set
``path``), and ``str(e)`` reads ``path:line: field: message`` from those
that are set.  The pipeline sets ``stage`` to the stage that failed.  Each
detail, these and a subclass's own, is a keyword of ``EvicritError(message,
**details)`` and a public class attribute that defaults to None; another
name raises TypeError.
"""

from __future__ import annotations


class EvicritError(Exception):
    """Base class for all evicrit errors."""

    stage: str | None = None
    path = None
    line: int | None = None
    field: str | None = None

    def __init__(self, *args, **details):
        super().__init__(*args)
        for name, value in details.items():
            if name.startswith("_") or getattr(type(self), name, True) is not None:
                raise TypeError(f"{type(self).__name__} has no detail {name!r}")
            setattr(self, name, value)

    def __str__(self) -> str:
        where = ":".join(str(p) for p in (self.path, self.line) if p is not None)
        return ": ".join(p for p in (where, self.field, super().__str__()) if p)


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

    conflict_k: float | None = None


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

    last_estimate: float | None = None


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
    """An input file is malformed; ``path``, ``line`` and ``field`` locate it."""


class MissingIndicator(EvicritError):
    """An input file omits one or more indicators that the matrices file lists."""


class UnknownIndicator(EvicritError):
    """An input file names an indicator that the matrices file does not list."""


class InconsistentMatrix(EvicritError):
    """Aggregated judgments failed the consistency gate (CR >= 0.1)."""

    report = None


class ConfigError(EvicritError):
    """A pipeline configuration value is invalid."""


class IoError(EvicritError):
    """Reading an input or writing an output failed."""
