"""Core domain model: linguistic grades, grade subsets, mass functions, and
the fourteen-indicator catalog whose descriptions the text report shows.

All types here are immutable values.  Subsets are encoded as bitmasks over
the fixed five-grade frame so that equality, hashing, and iteration order
are deterministic (always grade order).  Every mass function lives on that
frame: a vector with one slot per subset, indexed by its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    FrameMismatch,
    MassOutOfRange,
    MassSumInvalid,
    NonzeroEmptySet,
    ParseError,
)

#: tolerance for "masses sum to one" checks
MASS_SUM_TOL = 1e-9
#: masses smaller than this are pruned after combination arithmetic
MASS_PRUNE_EPS = 1e-12


class Label(IntEnum):
    """The five ordered linguistic grades, lowest to highest."""

    VL = 0
    L = 1
    M = 2
    H = 3
    VH = 4

    def __str__(self) -> str:
        return self.name


#: the frame of discernment: all five grades in order
FRAME: tuple[Label, ...] = tuple(Label)


def parse_label(name: str) -> Label:
    """Parse a grade name ("VL", "L", "M", "H", "VH")."""
    try:
        return Label[name]
    except (KeyError, TypeError):
        raise ParseError(f"unknown grade name {name!r}; expected one of "
                         + ", ".join(l.name for l in FRAME)) from None


@dataclass(frozen=True)
class Subset:
    """An immutable set of grades, one bit per grade.

    Bit ``i`` is set exactly when ``Label(i)`` is a member.  Intersection is
    a bitwise AND, cardinality a popcount, and members always iterate in
    grade order.
    """

    bits: int = 0

    def __post_init__(self):
        if not 0 <= self.bits < (1 << len(FRAME)):
            raise ValueError(f"subset bits out of range: {self.bits}")

    @classmethod
    def of(cls, *labels: Label) -> "Subset":
        bits = 0
        for label in labels:
            bits |= 1 << int(label)
        return cls(bits)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Subset":
        return cls.of(*(parse_label(n) for n in names))

    @property
    def members(self) -> tuple[Label, ...]:
        return tuple(l for l in FRAME if self.bits >> int(l) & 1)

    def names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.members)

    def is_empty(self) -> bool:
        return self.bits == 0

    def issubset(self, other: "Subset") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, label: Label) -> bool:
        return bool(self.bits >> int(label) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.bits & other.bits)

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.bits | other.bits)

    def __str__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


EMPTY_SET = Subset(0)
FULL_SET = Subset.of(*FRAME)


#: number of mass slots: one per subset of the frame, indexed by its bits
SLOTS = 1 << len(FRAME)
#: the Subset held in each slot
SUBSETS: tuple[Subset, ...] = tuple(Subset(bits) for bits in range(SLOTS))
#: slots in canonical order: smallest sets first, then grade order within a size
CANONICAL_ORDER: tuple[int, ...] = tuple(
    sorted(range(SLOTS), key=lambda bits: (bits.bit_count(), bits)))
#: AND_TABLE[a, b] is the slot of the intersection of slots a and b
AND_TABLE = np.bitwise_and.outer(np.arange(SLOTS), np.arange(SLOTS))
AND_TABLE.setflags(write=False)


def subsets_of() -> tuple[Subset, ...]:
    """All subsets of the frame, the empty set first, in bitmask order."""
    return SUBSETS


class Bpa:
    """A basic probability assignment: unit belief mass over grade subsets.

    The masses live in one read-only float64 vector of ``SLOTS`` entries;
    slot ``i`` holds the mass of ``Subset(i)``.  Given a mapping from subset
    to mass, the constructor fills those slots; given a slot vector, it
    keeps that array and makes it read-only.  Every mass function lives
    on the five-grade frame; one defined on fewer grades is the same vector
    with no mass on subsets outside them.
    """

    __slots__ = ("vector",)

    def __init__(self, masses: Mapping[Subset, float] | np.ndarray):
        if isinstance(masses, np.ndarray):
            if masses.shape != (SLOTS,):
                raise ValueError(f"slot vector needs shape ({SLOTS},), got {masses.shape}")
        else:
            vector = [0.0] * SLOTS
            for subset, mass in masses.items():
                vector[subset.bits] = float(mass)
            masses = np.array(vector)
        masses.setflags(write=False)
        self.vector = masses

    def mass(self, subset: Subset) -> float:
        return float(self.vector[subset.bits])

    def focal(self) -> tuple[tuple[Subset, float], ...]:
        """(subset, mass) pairs with positive mass, in canonical order."""
        values = self.vector.tolist()
        return tuple((SUBSETS[i], values[i]) for i in CANONICAL_ORDER if values[i] > 0.0)

    def total(self) -> float:
        return math.fsum(self.vector.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bpa):
            return NotImplemented
        return bool(np.array_equal(self.vector, other.vector))

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {m:.6g}" for s, m in self.focal())
        return f"Bpa({{{body}}})"


def vacuous() -> Bpa:
    """The vacuous assignment m(frame) = 1: total ignorance."""
    return Bpa({FULL_SET: 1.0})


def unit_normalized(masses: Sequence[float]) -> Bpa:
    """Build a Bpa from the positive slots of a slot vector, summing to exactly 1.0.

    ``masses`` holds ``SLOTS`` floats, slot ``i`` the mass of ``Subset(i)``;
    slots that are not positive become 0.  Scales proportionally, then
    absorbs the remaining float residue into the heaviest slot (lowest bits
    on ties) so repeated normalization is a no-op.  An infinite mass or
    total is rejected.
    """
    positive = [m if m > 0.0 else 0.0 for m in masses]
    try:
        total = math.fsum(positive)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise MassSumInvalid("masses must be finite and sum to a finite total")
    if total <= 0.0:
        raise MassSumInvalid("no positive mass to normalize")
    if total != 1.0:
        positive = [m / total for m in positive]
    for _ in range(8):
        residue = 1.0 - math.fsum(positive)
        if residue == 0.0:
            break
        # index() finds the first maximum, so the lowest bits win a tie
        positive[positive.index(max(positive))] += residue
    return Bpa(np.array(positive))


def validate_bpa(b: Bpa) -> Bpa:
    """Check all Bpa invariants; renormalize drift within tolerance.

    Returns ``b`` itself when the masses already sum to exactly 1.0.  When
    the sum is off by at most ``MASS_SUM_TOL`` the masses are renormalized
    proportionally; a larger gap, a mass outside [0, 1] or positive mass on
    the empty set is an error.
    """
    values = b.vector.tolist()
    for bits in CANONICAL_ORDER:
        mass = values[bits]
        if math.isnan(mass) or not 0.0 <= mass <= 1.0:
            raise MassOutOfRange(f"mass {mass!r} on {SUBSETS[bits]} outside [0, 1]")
    empty_mass = b.mass(EMPTY_SET)
    if empty_mass != 0.0:
        raise NonzeroEmptySet(f"empty set carries mass {empty_mass!r}")
    total = b.total()
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise MassSumInvalid(f"masses sum to {total!r}, not 1")
    if total == 1.0:
        return b
    return unit_normalized(b.vector.tolist())


# --- BPA fixture format (JSON) ----------------------------------------------

def json_number(value) -> float:
    """A parsed JSON number (int or float, not bool) as a float, else TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def bpa_to_dict(b: Bpa) -> dict:
    """Serialize to the fixture layout: frame names plus subset/mass entries."""
    return {
        "frame": [l.name for l in FRAME],
        "masses": [{"subset": list(s.names()), "mass": m} for s, m in b.focal()],
    }


def bpa_from_dict(data: Mapping) -> Bpa:
    """Parse the fixture layout produced by :func:`bpa_to_dict` and validate.

    ``"frame"`` lists the grades the masses may use; a focal set outside it
    is an error.
    """
    try:
        frame_names = data["frame"]
        entries = data["masses"]
    except (KeyError, TypeError):
        raise ParseError('BPA object needs "frame" and "masses" keys') from None
    if not isinstance(frame_names, list):
        raise ParseError('"frame" must be a list of grade names')
    if not isinstance(entries, list):
        raise ParseError('"masses" must be a list of subset/mass entries')
    frame = Subset.from_names(frame_names)
    vector = [0.0] * SLOTS
    for pos, entry in enumerate(entries):
        try:
            names = entry["subset"]
            mass = json_number(entry["mass"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError(f'masses[{pos}] needs "subset" and numeric "mass"') from None
        if not isinstance(names, list):
            raise ParseError(f'masses[{pos}]: "subset" must be a list of grade names')
        # a subset listed twice adds up, in input order
        vector[Subset.from_names(names).bits] += mass
    for bits in CANONICAL_ORDER:
        if vector[bits] != 0.0 and not SUBSETS[bits].issubset(frame):
            raise FrameMismatch(f"focal set {SUBSETS[bits]} outside frame {frame}")
    return validate_bpa(Bpa(np.array(vector)))


# --- indicator catalog -------------------------------------------------------

@dataclass(frozen=True)
class Indicator:
    """One evaluation criterion: a stable id (B1..B14) and what it measures."""

    id: str
    description: str


#: the fourteen DNA-sequence-analysis tool indicators, in id order
CATALOG: tuple[Indicator, ...] = (
    Indicator("B1", "Align Sequences"),
    Indicator("B2", "Feature selection"),
    Indicator("B3", "Find Genes"),
    Indicator("B4", "Find t RNA"),
    Indicator("B5", "Find Transcriptional elements"),
    Indicator("B6", "Online primer design sites"),
    Indicator("B7", "ORF identification"),
    Indicator("B8", "Pattern/Motif recognition"),
    Indicator("B9", "PCR oligonucleotide resources"),
    Indicator("B10", "PCR primer selection"),
    Indicator("B11", "PCR primers software"),
    Indicator("B12", "Restriction, Detect repeats & unusual Patterns"),
    Indicator("B13", "Transmembrane domain Identification"),
    Indicator("B14", "Other Tools"),
)

CATALOG_IDS: tuple[str, ...] = tuple(i.id for i in CATALOG)
_BY_ID = {i.id: i for i in CATALOG}


def indicator(indicator_id: str) -> Indicator:
    """Look up a catalog indicator by id; KeyError when unknown."""
    return _BY_ID[indicator_id]
