"""Core domain model: linguistic grades, grade subsets and mass functions.

All types here are immutable values.  Subsets are encoded as bitmasks over
the fixed five-grade frame so that equality, hashing, and iteration order
are deterministic (always grade order).  Every mass function lives on that
frame: an immutable tuple of 32 floats, one slot per subset, indexed by its
bits.  ``number`` is the one rule for every number a caller or a file gives
and for its refusal; ``number_text`` is the one rule for number text, and
``count`` the one rule for every whole count.  The CSV format lives here
too: ``csv_rows`` reads the rows of every CSV input and ``csv_text`` writes
every CSV output.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
import reprlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import IntEnum
from types import SimpleNamespace

from .errors import (
    FrameMismatch,
    MassOutOfRange,
    MassSumInvalid,
    NonzeroEmptySet,
    ParseError,
)

#: tolerance for "masses sum to one" checks
MASS_SUM_TOL = 1e-9

#: the types json.loads gives a number, not bool: ``number``'s exact-type fast form
JSON_NUMBER_TYPES: tuple[type, ...] = (int, float)


def number(value, error=None, what: str = "", high: float | None = None) -> float:
    """``value`` as a float if it is a number, else TypeError, or OverflowError
    for an int beyond float.  A number is a ``numbers.Real`` but not a bool;
    -0 is read as 0, so each value has one float and one printed text.
    Given an ``error`` class, either refusal is ``error("<what>: <reason>")``,
    which echoes the value bounded by ``reprlib.repr``.  Given ``high`` too,
    a value outside [0, high], NaN included, is ``error("<what> <x> outside
    [0, <high>]")``: the one refusal rule.
    """
    try:
        if type(value) not in JSON_NUMBER_TYPES and (
                not isinstance(value, numbers.Real) or isinstance(value, bool)):
            raise TypeError(f"{reprlib.repr(value)} is not a number")
        x = float(value) + 0.0
    except (TypeError, OverflowError) as e:
        if error is None:
            raise
        raise error(f"{what}: {e}") from None
    if high is not None and not 0.0 <= x <= high:
        raise error(f"{what} {x!r} outside [0, {high:g}]")
    return x


def number_text(text: str, kind: type = float) -> float | int:
    """The number ``text`` spells, read by ``kind`` (float or int), else
    ValueError: the one rule for number text, in a CSV row or on the command
    line.  The text is ASCII without ``_``, which ``kind`` alone does not
    ask, so ``1_0`` and Arabic-Indic digits are refused."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return kind(text)


def csv_rows(text: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each nonblank row after ``header`` of CSV ``text``:
    the one row rule of every CSV input.

    Quoting is strict, and a line ends at LF, CRLF or a lone CR; ``line``
    is the line on which the row ends.  The rows are read lazily, so a fault
    is raised only when the reader reaches it and the first fault in file
    order wins: another header is a ParseError, and a row of another width
    or a quoting fault is a ParseError at its line.
    """
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        first = next(reader, None)
        if first != list(header):
            raise ParseError(f"expected header {','.join(header)}, got {first}")
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                                     line=reader.line_num)
                yield reader.line_num, row
    except csv.Error as e:
        raise ParseError(str(e), line=reader.line_num) from None


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV encoding of every CSV output: a header row, then ``rows``,
    each record ended by "\\n".

    The csv module quotes a CR or LF in a field only when its line
    terminator holds it, so the writer ends its records in "\\r\\n" and
    each record it writes is cut back to "\\n".
    """
    records: list[str] = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([record[:-2] + "\n" for record in records])


def count(value, error=None, what: str = "") -> int:
    """``value`` as an int if it is a count, else TypeError: a count is a
    ``numbers.Integral`` but not a bool (an int, or an array library's integer scalar).
    Given an ``error`` class, the refusal is ``error("<what>: <value> is not
    an integer")``, the value bounded by ``reprlib.repr`` as ``number`` does."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return operator.index(value)
    reason = f"{reprlib.repr(value)} is not an integer"
    raise TypeError(reason) if error is None else error(f"{what}: {reason}")


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
#: the bit of each grade name
_NAME_BITS: dict[str, int] = {l.name: 1 << l for l in FRAME}


def parse_label(name: str) -> Label:
    """Parse a grade name ("VL", "L", "M", "H", "VH")."""
    try:
        return Label[name]
    except (KeyError, TypeError):
        raise ParseError(f"unknown grade name {reprlib.repr(name)}; expected one of "
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
        bits = 0
        for name in names:
            try:
                bits |= _NAME_BITS[name]
            except (KeyError, TypeError):
                parse_label(name)  # raises its error for an unknown name
        return SUBSETS[bits]

    @property
    def members(self) -> tuple[Label, ...]:
        return tuple(l for l in FRAME if self.bits >> int(l) & 1)

    def names(self) -> tuple[str, ...]:
        return _SLOT_NAMES[self.bits]

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

    def __str__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


EMPTY_SET = Subset(0)
FULL_SET = Subset.of(*FRAME)


#: number of mass slots: one per subset of the frame, indexed by its bits
SLOTS = 1 << len(FRAME)
#: the Subset held in each slot
SUBSETS: tuple[Subset, ...] = tuple(Subset(bits) for bits in range(SLOTS))
#: the member names of each slot's subset, in grade order
_SLOT_NAMES: tuple[tuple[str, ...], ...] = tuple(
    tuple(l.name for l in s.members) for s in SUBSETS)
#: slots in canonical order: smallest sets first, then grade order within a size
CANONICAL_ORDER: tuple[int, ...] = tuple(
    sorted(range(SLOTS), key=lambda bits: (bits.bit_count(), bits)))


def subsets_of() -> tuple[Subset, ...]:
    """All subsets of the frame, the empty set first, in bitmask order."""
    return SUBSETS


@dataclass(frozen=True)
class Bpa:
    """A basic probability assignment: unit belief mass over grade subsets.

    The masses live in ``vector``, an immutable tuple of ``SLOTS`` floats;
    slot ``i`` holds the mass of ``Subset(i)``.  The constructor takes a
    mapping from subset to mass or ``SLOTS`` slot values (a list, tuple or
    array), each a ``number`` (else TypeError), and always copies them into
    a new tuple, so nothing the caller keeps can change the Bpa, and
    ``vector`` cannot be reassigned.  Every mass function lives on the
    five-grade frame: one on fewer grades has no mass outside them.
    """

    vector: tuple[float, ...]

    def __init__(self, masses: Mapping[Subset, float] | Sequence[float]):
        if isinstance(masses, Mapping):
            slots = [0.0] * SLOTS
            for subset, mass in masses.items():
                slots[subset.bits] = mass
            masses = slots
        try:  # float.conjugate: exact floats at C speed, TypeError on any other type
            vector = tuple(map(float.conjugate, masses))
        except TypeError:
            vector = tuple(map(number, masses))
        if len(vector) != SLOTS:
            raise ValueError(f"need {SLOTS} slot values, got {len(vector)}")
        object.__setattr__(self, "vector", vector)

    def mass(self, subset: Subset) -> float:
        return self.vector[subset.bits]

    def focal(self) -> tuple[tuple[Subset, float], ...]:
        """(subset, mass) pairs with positive mass, in canonical order."""
        values = self.vector
        return tuple((SUBSETS[i], values[i]) for i in CANONICAL_ORDER if values[i] > 0.0)

    def total(self) -> float:
        return math.fsum(self.vector)

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
    return Bpa(positive)


def validate_bpa(b: Bpa) -> Bpa:
    """Check all Bpa invariants; renormalize drift within tolerance.

    Returns ``b`` itself when the masses already sum to exactly 1.0.  When
    the sum is off by at most ``MASS_SUM_TOL`` the masses are renormalized
    proportionally; a larger gap, a mass outside [0, 1] or positive mass on
    the empty set is an error.
    """
    values = b.vector
    for bits in CANONICAL_ORDER:
        mass = values[bits]
        if not 0.0 <= mass <= 1.0:
            raise MassOutOfRange(f"mass {mass!r} on {SUBSETS[bits]} outside [0, 1]")
    empty_mass = b.mass(EMPTY_SET)
    if empty_mass != 0.0:
        raise NonzeroEmptySet(f"empty set carries mass {empty_mass!r}")
    total = b.total()
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise MassSumInvalid(f"masses sum to {total!r}, not 1")
    if total == 1.0:
        return b
    return unit_normalized(b.vector)


# --- BPA fixture format (JSON) ----------------------------------------------

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
            mass = number(entry["mass"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError(f'masses[{pos}] needs "subset" and numeric "mass"') from None
        if not isinstance(names, list):
            raise ParseError(f'masses[{pos}]: "subset" must be a list of grade names')
        # a subset listed twice adds up, in input order
        vector[Subset.from_names(names).bits] += mass
    for bits in CANONICAL_ORDER:
        if vector[bits] != 0.0 and not SUBSETS[bits].issubset(frame):
            raise FrameMismatch(f"focal set {SUBSETS[bits]} outside frame {frame}")
    return validate_bpa(Bpa(vector))

