"""Bundled data: published reference tables and a ready-to-run example input set.

The reference files freeze externally published values (weighting table,
indicator ratings, window-fusion table) for regression tests.  The ratings
file is also the package's one indicator catalog: the ids B1..B14 and the
descriptions that the text report shows.  The example files are synthetic
inputs calibrated so the full pipeline reproduces the reference weighting
profile and ranking verdicts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import Bpa, Label, bpa_from_dict, csv_rows, parse_label
from .entropy import EntropyTable
from .errors import IoError, ParseError

EXAMPLE_FILES = ("scores.csv", "matrices.json", "priors.csv", "ri.json")


def _data_root():
    return resources.files(__package__) / "data"


def _read(relative: str) -> str:
    try:
        return (_data_root() / relative).read_text(encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot read bundled data file {relative!r}: {e}") from e


def reference_weights() -> EntropyTable:
    """The published per-indicator weighting table, exactly as printed.

    The E and d columns satisfy d = 1 - E, but the printed W and adjusted-W
    columns do not follow from them (or from the printed priors) by the
    weighting equations; they are kept verbatim as ranking fixtures only.
    """
    return EntropyTable.from_csv(_read("reference_weights.csv"))


@dataclass(frozen=True)
class ReferenceRating:
    """One published indicator rating."""

    indicator: str
    description: str
    rating: Label


@functools.cache
def reference_ratings() -> tuple[ReferenceRating, ...]:
    """The published single-grade rating of each of the fourteen indicators,
    in id order; the file is read once per process."""
    return tuple(ReferenceRating(indicator, description, parse_label(rating))
                 for _, (indicator, description, rating) in csv_rows(
                     _read("reference_ratings.csv"), ("indicator", "description", "rating")))


@dataclass(frozen=True)
class ReferenceFusion:
    """The published window-fusion table: six window rows plus their average.

    Each row is stored as a full mass function: the published columns cover
    singletons and adjacent pairs, and the unprinted remainder of each row
    sits on the whole frame.
    """

    windows: tuple[tuple[tuple[str, ...], Bpa], ...]
    average: Bpa


def reference_fusion() -> ReferenceFusion:
    try:
        doc = json.loads(_read("reference_fusion.json"))
        windows = tuple((tuple(entry["indicators"]), bpa_from_dict(entry["bpa"]))
                        for entry in doc["windows"])
        average = bpa_from_dict(doc["average"])
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ParseError(f"invalid fusion fixture: {e}") from e
    return ReferenceFusion(windows=windows, average=average)


def example_input_text(name: str) -> str:
    """Raw text of one bundled example input file (see EXAMPLE_FILES)."""
    if name not in EXAMPLE_FILES:
        raise KeyError(f"unknown example file {name!r}; have {EXAMPLE_FILES}")
    return _read(f"example/{name}")


def export_example_inputs(dest: str | Path) -> dict[str, Path]:
    """Copy the bundled example inputs into ``dest`` and return their paths;
    each file is written by the rule of every output (see ``report``)."""
    from .report import _atomic_write  # on first use: report imports this module

    return {name: _atomic_write(Path(dest) / name, example_input_text(name))
            for name in EXAMPLE_FILES}
