"""The CSV loaders check whole columns and walk rows only to word a fault.

``reference_ingest`` is the row walk written out on its own: rows in file
order, each checked in turn, the first faulty one raising with its line.
Both loaders must agree with it on valid files and on files with up to two
injected faults, so the column checks accept exactly what the walk accepts
and the walk's message names the first fault.
"""

import csv
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evicrit import errors
from evicrit.pipeline import ingest_priors, ingest_scores

IDS = ("A", "B", "C")
EXPERTS = ("e1", "e\n2", 'e"3')

SCORES = {"header": ["expert_id", "indicator", "score"],
          "what": "score", "numbers": ["0", "2.5", "5", "7.25", "10", "3.3", " 4 ", "1e1"]}
PRIORS = {"header": ["indicator", "lambda"],
          "what": "prior", "numbers": ["0", "0.5", "2", "1e3", "0.1833", " 3 "]}


def reference_ingest(path, ids, kind):
    """Means per id in ``ids`` order, or the first faulty row's error."""
    header, what = kind["header"], kind["what"]
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(io.StringIO(f.read()), strict=True)
    seen = {}
    collected = {}
    try:
        first = next(reader, None)
        if first != header:
            raise errors.ParseError(f"{path}: expected header {','.join(header)}, "
                                    f"got {first}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise errors.ParseError(f"{path}:{line}: expected {len(header)} "
                                        f"columns, got {len(row)}")
            *key, number = row
            if key[-1] not in ids:
                raise errors.UnknownIndicator(f"{path}:{line}: unknown indicator "
                                              f"{key[-1]!r}")
            try:
                if "_" in number or not number.isascii():
                    raise ValueError(number)
                value = float(number)
            except ValueError:
                raise errors.ParseError(f"{path}:{line}: {what} {number!r} is not "
                                        f"a number") from None
            if what == "score" and not 0.0 <= value <= 10.0:
                raise errors.ScoreOutOfRange(f"{path}:{line}: score {value!r} "
                                             f"outside [0, 10]")
            if what == "prior" and not 0.0 <= value < math.inf:
                raise errors.DegeneratePriors(f"{path}:{line}: prior {value!r} is not "
                                              f"a nonnegative finite real")
            if tuple(key) in seen:
                raise errors.ParseError(
                    f"{path}:{line}: expert {key[0]!r} already scored {key[1]} at "
                    f"line {seen[tuple(key)]}" if what == "score"
                    else f"{path}:{line}: duplicate prior for {key[0]}")
            seen[tuple(key)] = line
            collected.setdefault(key[-1], []).append(value)
    except csv.Error as e:
        raise errors.ParseError(f"{path}:{reader.line_num}: {e}") from None
    missing = [i for i in ids if i not in collected]
    if missing:
        raise errors.MissingIndicator(f"{path}: no {'scores' if what == 'score' else 'prior'}"
                                      f" for {', '.join(missing)}")
    return {i: math.fsum(collected[i]) / len(collected[i]) for i in ids}


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


#: each fault rewrites one row, given as its key fields and its number text;
#: a number of None leaves the row one column short
FAULTS = {
    "extra-column": lambda key, number: ([*key, "x"], number),
    "short-row": lambda key, number: (key, None),
    "unknown-id": lambda key, number: ([*key[:-1], "Z"], number),
    "underscore": lambda key, number: (key, "1_0"),
    "arabic-indic-digit": lambda key, number: (key, "٥"),
    "fullwidth-digit": lambda key, number: (key, "５"),
    "nan": lambda key, number: (key, "nan"),
    "inf": lambda key, number: (key, "inf"),
    "negative": lambda key, number: (key, "-0.5"),
    "above-ten": lambda key, number: (key, "10.5"),
    "not-a-number": lambda key, number: (key, "five"),
    "text-after-quote": lambda key, number: (key, '"0.1"5'),
}
FILE_FAULTS = ["duplicate", "missing-id", "bad-header", "unterminated-quote"]


@st.composite
def csv_files(draw, kind):
    """The text of a file for IDS with 0-2 injected faults."""
    keys = ([[e, i] for e in EXPERTS for i in IDS] if kind is SCORES
            else [[i] for i in IDS])
    rows = draw(st.permutations(
        [(key, draw(st.sampled_from(kind["numbers"]))) for key in keys]))
    faults = draw(st.lists(st.sampled_from(sorted(FAULTS) + FILE_FAULTS), max_size=2))
    header = kind["header"]
    tail = ""
    for fault in faults:
        pos = draw(st.integers(0, len(rows) - 1))
        if fault in FAULTS:
            rows[pos] = FAULTS[fault](*rows[pos])
        elif fault == "duplicate":
            rows.insert(pos, (rows[draw(st.integers(0, len(rows) - 1))][0], "1"))
        elif fault == "missing-id":
            gone = draw(st.sampled_from(IDS))
            rows = [row for row in rows if row[0][-1] != gone] or rows[:1]
        elif fault == "bad-header":
            header = header[::-1]
        else:
            tail = ",".join(rows[pos][0]).replace("\n", "") + ',"5'
    lines = [",".join(header)]
    for key, number in rows:
        fields = [quoted(f) if "\n" in f or '"' in f or draw(st.booleans()) else f
                  for f in key]
        if number is not None:
            fields.append(number if number.startswith('"') else
                          quoted(number) if draw(st.booleans()) else number)
        lines.append(",".join(fields))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n" + tail


def outcome(call):
    try:
        return list(call().items())
    except errors.EvicritError as e:
        return type(e), str(e)


_AGREE = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@_AGREE
@given(text=csv_files(SCORES))
def test_ingest_scores_agrees_with_the_row_walk(tmp_path, text):
    p = tmp_path / "scores.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert outcome(lambda: ingest_scores(p, IDS)) == outcome(
        lambda: reference_ingest(p, IDS, SCORES))


@_AGREE
@given(text=csv_files(PRIORS))
def test_ingest_priors_agrees_with_the_row_walk(tmp_path, text):
    p = tmp_path / "priors.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert outcome(lambda: ingest_priors(p, IDS)) == outcome(
        lambda: reference_ingest(p, IDS, PRIORS))


def test_first_of_two_faults_wins(tmp_path):
    p = tmp_path / "priors.csv"
    # a blank line and a two-line quoted number before the first fault
    p.write_text('indicator,lambda\nA,0.5\n\nB,"1\n"\nC,nan\nZ,1\n')
    error = outcome(lambda: ingest_priors(p, IDS))
    assert error == (errors.DegeneratePriors,
                     f"{p}:6: prior nan is not a nonnegative finite real")
    assert error == outcome(lambda: reference_ingest(p, IDS, PRIORS))


def test_a_header_only_file_for_no_ids_is_empty(tmp_path):
    # the one valid file that the column checks leave to the row walk
    for load, kind in ((ingest_scores, SCORES), (ingest_priors, PRIORS)):
        p = tmp_path / "header.csv"
        p.write_text(",".join(kind["header"]) + "\n")
        assert load(p, ()) == {} == reference_ingest(p, (), kind)
