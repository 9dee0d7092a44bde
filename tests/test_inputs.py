"""Malformed input: every loader and CLI run ends in a value or an EvicritError.

Fixed regression cases for inputs that used to raise a traceback or be
accepted silently, plus hypothesis fuzzing of the six loaders and of the
command line on the same files.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evicrit import cli, errors
from evicrit.datasets import export_example_inputs
from evicrit.pipeline import (
    ingest_matrices,
    ingest_priors,
    ingest_scores,
    load_bpa_fixtures,
    load_bpa_list,
    load_ri_table,
)

IDS = ("A", "B")
FRAME_NAMES = ["VL", "L", "M", "H", "VH"]


def write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


def bpa_doc(subset=("H",), mass=1.0):
    return {"frame": FRAME_NAMES, "masses": [{"subset": list(subset), "mass": mass}]}


def matrices_doc(cell=2.0):
    return {"indicators": list(IDS),
            "experts": [{"id": "e1", "matrix": [[1.0, cell], [0.5, 1.0]]}]}


# --- error locations ---------------------------------------------------------------

@pytest.mark.parametrize("details, text", [
    ({}, "bad"), ({"path": "f.csv"}, "f.csv: bad"),
    ({"path": "f.csv", "line": 3}, "f.csv:3: bad"),
    ({"path": "f.json", "field": "bpas[0]"}, "f.json: bpas[0]: bad"),
    ({"path": "f.csv", "line": 3, "field": "B1", "stage": "ingest"}, "f.csv:3: B1: bad"),
], ids=["bare", "path", "line", "field", "all"])
def test_error_location_is_data(details, text):
    e = errors.ParseError("bad", **details)
    assert (str(e), e.args, repr(e)) == (text, ("bad",), "ParseError('bad')")
    assert all(getattr(e, name) == value for name, value in details.items())


def test_error_details_are_declared_keywords():
    assert errors.InvalidMatrix("m", index=2).index == 2
    assert errors.TotalConflict("k", conflict_k=1.0).conflict_k == 1.0
    for error, name in [(errors.EvicritError, "index"), (errors.TotalConflict, "report"),
                        (errors.ParseError, "args"), (errors.ParseError, "_x")]:
        with pytest.raises(TypeError):
            error("m", **{name: 1})


# --- fixed regression cases ------------------------------------------------------

def test_non_utf8_byte_names_file_and_offset(tmp_path):
    p = write(tmp_path / "s.csv", b"expert_id,indicator,score\ne1,A,5\ne\xe9,B,5\n")
    with pytest.raises(errors.ParseError) as exc:
        ingest_scores(p, IDS)
    assert str(p) in str(exc.value) and "byte 34" in str(exc.value)


def test_non_utf8_byte_offset_counts_the_byte_order_mark(tmp_path):
    p = write(tmp_path / "r.json", b'\xef\xbb\xbf{"3": 0.5\xff}')
    with pytest.raises(errors.ParseError) as exc:
        load_ri_table(p)
    assert "byte 12" in str(exc.value)


def test_cli_non_utf8_scores_exit_1(tmp_path, capsys):
    paths = export_example_inputs(tmp_path / "in")
    paths["scores.csv"].write_bytes(paths["scores.csv"].read_bytes() + b"e\xe9,B1,5\n")
    code = cli.run(["evaluate", "--scores", str(paths["scores.csv"]),
                    "--matrices", str(paths["matrices.json"]),
                    "--priors", str(paths["priors.csv"]),
                    "--ri-table", str(paths["ri.json"])])
    assert code == 1
    assert "scores.csv" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"3": ' + "1" * 5000 + "}",
], ids=["deep-nesting", "5000-digit-int"])
def test_json_beyond_parser_limits_is_parse_error(tmp_path, text):
    p = write(tmp_path / "r.json", text)
    with pytest.raises(errors.ParseError) as exc:
        load_ri_table(p)
    assert str(p) in str(exc.value)


def test_csv_field_over_the_field_size_limit(tmp_path):
    p = write(tmp_path / "s.csv", "expert_id,indicator,score\ne1,A,5\n"
                                  + "x" * 140_000 + ",B,5\n")
    with pytest.raises(errors.ParseError) as exc:
        ingest_scores(p, IDS)
    assert f"{p}:3:" in str(exc.value)


HUGE = int("1" * 401)


@pytest.mark.parametrize("loader,doc", [
    (ingest_matrices, matrices_doc(HUGE)),
    (load_ri_table, {"3": HUGE}),
    (load_bpa_list, [bpa_doc(mass=HUGE)]),
], ids=["matrix", "ri", "mass"])
def test_401_digit_integer_is_parse_error(tmp_path, loader, doc):
    p = write(tmp_path / "d.json", json.dumps(doc))
    with pytest.raises(errors.ParseError) as exc:
        loader(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("loader,doc,field", [
    (load_bpa_list, [bpa_doc(mass=True)], 'bpas[0]: masses[0] needs "subset" and numeric "mass"'),
    (load_bpa_list, [bpa_doc(mass="1")], 'bpas[0]: masses[0] needs "subset" and numeric "mass"'),
    (ingest_matrices, matrices_doc(True), "expert 'e1': matrix cell (1,2) is True"),
    (ingest_matrices, matrices_doc("2"), "expert 'e1': matrix cell (1,2) is '2'"),
    (load_ri_table, {"14": "1.57"}, "bad RI entry '14'"),
    (load_ri_table, {"1_4": 1.57}, "bad RI entry '1_4'"),
    (load_ri_table, {" 14": 1.57}, "bad RI entry ' 14'"),
    (load_ri_table, {"+14": 1.57}, "bad RI entry '+14'"),
    # one spelling per order: "014" is not a second key for order 14
    (load_ri_table, {"14": 1.57, "014": 9.0}, "bad RI entry '014'"),
    (load_ri_table, {"014": 9.0, "14": 1.57}, "bad RI entry '014'"),
], ids=["mass-true", "mass-string", "cell-true", "cell-string", "ri-string",
        "ri-key-underscore", "ri-key-space", "ri-key-plus", "ri-key-zero-after",
        "ri-key-zero-first"])
def test_numeric_fields_need_json_numbers(tmp_path, loader, doc, field):
    p = write(tmp_path / "d.json", json.dumps(doc))
    with pytest.raises(errors.ParseError) as exc:
        loader(p)
    assert str(exc.value).startswith(f"{p}: {field}")


@pytest.mark.parametrize("bad_id", [True, {"x": 1}, 1, None],
                         ids=["true", "object", "number", "null"])
def test_expert_id_must_be_a_json_string(tmp_path, bad_id):
    doc = matrices_doc()
    # a true id used to become "True" and collide with this one
    doc["experts"].insert(0, {**doc["experts"][0], "id": "True"})
    doc["experts"][1]["id"] = bad_id
    p = write(tmp_path / "m.json", json.dumps(doc))
    with pytest.raises(errors.ParseError) as exc:
        ingest_matrices(p)
    assert str(exc.value) == f'{p}: experts[1]: "id" must be a string'


@pytest.mark.parametrize("command", [
    "weights", "weights --out {d}/w.csv",
    "evaluate --format text --scores {d}/s.csv --priors {d}/p.csv --out-dir {d}/out",
], ids=["weights-stdout", "weights-out", "evaluate-text"])
def test_indicator_id_without_utf8_exits_1(tmp_path, capsys, command):
    # "\udc80" is a legal JSON escape but a lone surrogate, which no output
    # file can hold in UTF-8; the stdout run used to exit 0
    p = write(tmp_path / "m.json", json.dumps({**matrices_doc(), "indicators": ["a\udc80", "b"]}))
    write(tmp_path / "s.csv", "expert_id,indicator,score\ne1,b,5\n")
    write(tmp_path / "p.csv", "indicator,prior\nb,0.5\n")
    assert cli.run([*command.format(d=tmp_path).split(), "--matrices", str(p)]) == 1
    message = f"{p}: indicator id 'a\\udc80' is not encodable as UTF-8"
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("matrices,error,message", [
    ([[[1.0, 2.0], [1.0, 1.0]], [[1.0, "2"], [0.5, 1.0]]], errors.InvalidMatrix,
     "expert 'e0': reciprocity violated at (1,2)/(2,1): 2.0 * 1.0 != 1"),
    ([[[1.0, True], [0.5, 1.0]], [[1.0, 2.0], [1.0, 1.0]]], errors.ParseError,
     "expert 'e0': matrix cell (1,2) is True, not a number"),
    ([[[1.0, 2.0], [0.5, 1.0]], [[1.0, 0], [0.5, 1.0]], [[1.0, 2.0, 3.0], [0.5, 1.0, 1.0]]],
     errors.InvalidMatrix, "expert 'e1': all entries must be positive finite reals"),
    ([[[1.0, 2.0], [0.5, 1.0]], [[1.0, 0], [0.5, 1.0]], [[1.0, 2.0], [1.0, 1.0]]],
     errors.InvalidMatrix, "expert 'e1': all entries must be positive finite reals"),
    ([[[1.0, 2.0], [1.0, 1.0]], [[1.0, 0], [0.5, 1.0]]], errors.InvalidMatrix,
     "expert 'e0': reciprocity violated at (1,2)/(2,1): 2.0 * 1.0 != 1"),
    ([[[1.0, 0], [0.5, 1.0]], [[1.0, 2.0], [1.0, 1.0]]],
     errors.InvalidMatrix, "expert 'e0': all entries must be positive finite reals"),
    ([[[1.0, 2.0], [0.5, 1.0]], [[1.0, math.inf], [0.0, 1.0]]],
     errors.InvalidMatrix, "expert 'e1': all entries must be positive finite reals"),
], ids=["nonreciprocal-then-string", "true-then-nonreciprocal", "zero-then-shape",
        "zero-then-nonreciprocal", "nonreciprocal-then-zero", "zero-first-then-nonreciprocal",
        "inf-mirrored-by-zero"])
def test_first_faulty_expert_is_reported(tmp_path, matrices, error, message):
    # the experts are walked in order, each one's structural checks before
    # its values, so the first faulty expert is named whatever its fault.
    # Values are checked as one stack: inf * 0.0 in it raises no RuntimeWarning
    doc = {"indicators": list(IDS),
           "experts": [{"id": f"e{k}", "matrix": m} for k, m in enumerate(matrices)]}
    p = write(tmp_path / "m.json", json.dumps(doc))
    with pytest.raises(error) as exc:
        ingest_matrices(p)
    assert type(exc.value) is error
    assert str(exc.value) == f"{p}: {message}"
    assert (exc.value.path, exc.value.field) == (p, message.split(": ")[0])
    if error is errors.InvalidMatrix:  # the expert's position in the file
        assert exc.value.field == f"expert 'e{exc.value.index}'"


@pytest.mark.parametrize("doc,message", [
    ({**matrices_doc(), "indicators": ["A", "B", "A"]}, "duplicate indicator ids"),
    ({"indicators": list(IDS), "experts": [matrices_doc()["experts"][0], {"id": "e2"}]},
     'experts[1] needs "id" and "matrix"'),
    ({"indicators": list(IDS), "experts": [["e1", [[1.0, 2.0], [0.5, 1.0]]]]},
     'experts[0] needs "id" and "matrix"'),
], ids=["duplicate-indicator", "no-matrix", "expert-list"])
def test_matrices_file_structure_faults_are_worded(tmp_path, doc, message):
    p = write(tmp_path / "m.json", json.dumps(doc))
    with pytest.raises(errors.ParseError) as exc:
        ingest_matrices(p)
    assert str(exc.value) == f"{p}: {message}"


GOOD = [[1.0, 2.0], [0.5, 1.0]]


@pytest.mark.parametrize("matrix,error,message", [
    ([[True, 2.0], [0.5, 1.0]], errors.ParseError, "matrix cell (1,1) is True, not a number"),
    ([[1.0, False], [0.5, 1.0]], errors.ParseError, "matrix cell (1,2) is False, not a number"),
    ([[1.0, 2.0], [None, 1.0]], errors.ParseError, "matrix cell (2,1) is None, not a number"),
    ([[1.0, 2.0], [0.5, "1.0"]], errors.ParseError, "matrix cell (2,2) is '1.0', not a number"),
    ([[1.0, 2.0], [0.5]], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, 2.0, 3.0], [0.5, 1.0]], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, 2.0], 7], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, 2.0], "ab"], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, 2.0], {"ab": 1, "cd": 2}], errors.ParseError, "matrix is not rectangular numeric"),
    ("ab", errors.ParseError, "matrix is not rectangular numeric"),
    ({"ab": [1.0, 2.0], "cd": [0.5, 1.0]}, errors.ParseError,
     "matrix is not rectangular numeric"),
    ([[1.0, [2.0]], [0.5, 1.0]], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, HUGE], [0.5, 1.0]], errors.ParseError, "matrix is not rectangular numeric"),
    ([[1.0, 2.0, 1.0], [0.5, 1.0, 1.0], [1.0, 1.0, 1.0]], errors.OrderMismatch,
     "matrix shape (3, 3) does not match 2 indicators"),
], ids=["true-diagonal", "false", "null", "string-diagonal", "short-row", "long-row",
        "number-row", "string-row", "object-row", "string-matrix", "object-matrix",
        "nested-cell", "401-digit-int", "wrong-order"])
def test_malformed_matrix_between_good_ones(tmp_path, matrix, error, message):
    # each would pass a check of lengths or a float conversion alone: true
    # and "1.0" become 1.0, which is reciprocal to itself on the diagonal,
    # and strings and objects have lengths
    doc = {"indicators": list(IDS),
           "experts": [{"id": "e0", "matrix": GOOD}, {"id": "e1", "matrix": matrix},
                       {"id": "e2", "matrix": GOOD}]}
    p = write(tmp_path / "m.json", json.dumps(doc))
    with pytest.raises(error) as exc:
        ingest_matrices(p)
    assert type(exc.value) is error
    assert str(exc.value) == f"{p}: expert 'e1': {message}"


def test_repeated_json_key_is_parse_error(tmp_path):
    first, second = json.dumps(bpa_doc(("H",))), json.dumps(bpa_doc(("VL",)))
    p = write(tmp_path / "f.json", f'{{"A": {first}, "B": {first}, "A": {second}}}')
    with pytest.raises(errors.ParseError) as exc:
        load_bpa_fixtures(p, IDS)
    assert str(p) in str(exc.value) and "'A'" in str(exc.value)
    body = json.dumps(matrices_doc())[1:]
    p = write(tmp_path / "m.json", '{"indicators": ["X", "Y"], ' + body)
    with pytest.raises(errors.ParseError) as exc:
        ingest_matrices(p)
    assert "'indicators'" in str(exc.value)


LONG = "x" * 5000
#: how a refusal echoes LONG: as ``reprlib.repr`` bounds it
ECHO = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"


def experts_json(*experts, indicators=IDS):
    return json.dumps({"indicators": list(indicators),
                       "experts": [{"id": i, "matrix": m} for i, m in experts]})


@pytest.mark.parametrize("name,data,load,error,echo", [
    ("m.json", experts_json((LONG, GOOD), (LONG, GOOD)), ingest_matrices,
     errors.ParseError, f"duplicate expert id {ECHO}"),
    ("m.json", experts_json((LONG, [[1.0]])), ingest_matrices,
     errors.OrderMismatch, f"expert {ECHO}: matrix shape"),
    ("m.json", experts_json((LONG, [[1.0, 2.0], [2.0, 1.0]])), ingest_matrices,
     errors.InvalidMatrix, f"expert {ECHO}: reciprocity violated"),
    ("m.json", experts_json(("e1", [[1.0, "1" * 5000], [0.5, 1.0]])), ingest_matrices,
     errors.ParseError, "matrix cell (1,2) is '111111111111...1111111111111', not"),
    ("m.json", experts_json(("e1", GOOD), indicators=[LONG + "\udc80", "B"]),
     ingest_matrices, errors.ParseError,
     "indicator id 'xxxxxxxxxxxx...xxxxxxx\\udc80' is not encodable"),
    ("f.json", f'{{"{LONG}": 1, "{LONG}": 2}}', lambda p: load_bpa_fixtures(p, IDS),
     errors.ParseError, f"repeated key {ECHO}"),
    ("f.json", json.dumps({LONG: bpa_doc()}), lambda p: load_bpa_fixtures(p, IDS),
     errors.UnknownIndicator, f"unknown indicator {ECHO}"),
    ("s.csv", f"expert_id,indicator,score\ne1,{LONG},5\n", lambda p: ingest_scores(p, IDS),
     errors.UnknownIndicator, f":2: unknown indicator {ECHO}"),
    ("s.csv", f"expert_id,indicator,score\ne1,A,{LONG}\n", lambda p: ingest_scores(p, IDS),
     errors.ParseError, f":2: score {ECHO} is not a number"),
    ("s.csv", f"expert_id,indicator,score\n{LONG},A,5\n{LONG},A,6\n",
     lambda p: ingest_scores(p, IDS), errors.ParseError,
     f":3: expert {ECHO} already scored A at line 2"),
    ("s.csv", f"expert_id,indicator,score\ne1,{LONG},5\ne1,{LONG},6\n",
     lambda p: ingest_scores(p, (LONG, "B")), errors.ParseError,
     ":3: expert 'e1' already scored xxxxxxxxxxxxx...xxxxxxxxxxxxxx at line 2"),
    ("p.csv", f"indicator,lambda\n{LONG},0.5\n{LONG},0.5\n",
     lambda p: ingest_priors(p, (LONG, "B")), errors.ParseError,
     ":3: duplicate prior for xxxxxxxxxxxxx...xxxxxxxxxxxxxx"),
    ("b.json", json.dumps([bpa_doc((LONG,))]), load_bpa_list,
     errors.ParseError, f"bpas[0]: unknown grade name {ECHO}; expected one of"),
    ("s.csv", "expert_id,indicator,score\ne1,B,5\n", lambda p: ingest_scores(p, (LONG, "B")),
     errors.MissingIndicator, ": no scores for xxxxxxxxxxxxx...xxxxxxxxxxxxxx"),
    ("p.csv", "indicator,lambda\nB,0.5\n", lambda p: ingest_priors(p, (LONG, "B")),
     errors.MissingIndicator, ": no prior for xxxxxxxxxxxxx...xxxxxxxxxxxxxx"),
    ("f.json", json.dumps({LONG: bpa_doc(mass=2.0), "B": bpa_doc()}),
     lambda p: load_bpa_fixtures(p, (LONG, "B")), errors.MassOutOfRange,
     ": xxxxxxxxxxxxx...xxxxxxxxxxxxxx: mass 2.0 on {H} outside [0, 1]"),
    ("s.csv", "expert_id,indicator,score\ne1,i1000,5\n",
     lambda p: ingest_scores(p, tuple(f"i{k}" for k in range(1001))),
     errors.MissingIndicator, ": no scores for i0, i1, i2, i3, i4 and 995 more"),
], ids=["duplicate-expert-id", "expert-field-structure", "expert-field-matrix",
        "matrix-cell", "indicator-not-utf8", "repeated-json-key",
        "unknown-indicator-fixture", "unknown-indicator-csv", "score-not-a-number",
        "already-scored-expert", "already-scored-indicator", "duplicate-prior",
        "grade-name", "missing-long-id", "missing-long-prior", "fixture-field",
        "missing-many-ids"])
def test_a_long_value_from_a_file_is_echoed_bounded(tmp_path, name, data, load, error,
                                                    echo):
    p = write(tmp_path / name, data)
    with pytest.raises(error) as exc:
        load(p)
    assert type(exc.value) is error
    assert echo in str(exc.value)
    assert len(str(exc.value)) < 200


def score_11_on_line_3(example):
    lines = example["scores.csv"].read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",11\n"
    return "".join(lines)


@pytest.mark.parametrize("name,data,message", [
    ("matrices.json", lambda _: experts_json((LONG, GOOD), (LONG, GOOD)),
     f"duplicate expert id {ECHO}"),
    ("matrices.json", lambda _: experts_json(("e0", [[1, 2], [1, 1]]), ("e1", [[1, True], [1, 1]])),
     "expert 'e0': reciprocity violated at (1,2)/(2,1)"),
    ("scores.csv", score_11_on_line_3, "scores.csv:3: score 11.0 outside [0, 10]"),
], ids=["long-duplicate-id", "first-faulty-expert", "score-out-of-range"])
def test_cli_refusal_is_one_bounded_line(tmp_path, capsys, example, name, data, message):
    # exit 1 and one line on stderr: the stage, the file, then the loader's message
    p = write(tmp_path / name, data(example))
    assert cli.run(cli_argv(name, p, example)) == 1
    err = capsys.readouterr().err
    head = f"evicrit: error [stage: ingest]: {p}"
    assert err.startswith(head) and err.endswith("\n") and err.count("\n") == 1
    assert message in err and len(err) - len(head) < 200


@pytest.mark.parametrize("loader,doc,key", [
    (ingest_matrices, {**matrices_doc(), "indicators": "AB"}, '"indicators"'),
    (ingest_matrices, {**matrices_doc(), "experts": {"e1": 1}}, '"experts"'),
    (load_bpa_list, [{"frame": FRAME_NAMES, "masses": [{"subset": "H", "mass": 1.0}]}],
     '"subset"'),
], ids=["indicators", "experts", "subset"])
def test_json_fields_must_be_lists(tmp_path, loader, doc, key):
    p = write(tmp_path / "d.json", json.dumps(doc))
    with pytest.raises(errors.ParseError) as exc:
        loader(p)
    assert f"{key} must be a" in str(exc.value)


def test_csv_line_numbers_count_physical_lines(tmp_path):
    p = write(tmp_path / "s.csv",
              'expert_id,indicator,score\n"e\n1",A,5\ne2,B,five\n')
    with pytest.raises(errors.ParseError) as exc:
        ingest_scores(p, IDS)
    assert f"{p}:4:" in str(exc.value)
    assert exc.value.line == 4


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_line_numbers_are_the_same_for_every_line_end(tmp_path, end):
    # a quoted CRLF is one line end, as it is between rows
    p = write(tmp_path / "s.csv",
              end.join(["expert_id,indicator,score", '"e\r\n1",A,5', "e2,B,five", ""]))
    with pytest.raises(errors.ParseError) as exc:
        ingest_scores(p, IDS)
    assert str(exc.value) == f"{p}:4: score 'five' is not a number"


def test_a_quoted_cr_is_part_of_its_id(tmp_path):
    p = write(tmp_path / "p.csv", 'indicator,lambda\r\n"A\r",1\r\n"A\rB",2\r\n')
    assert ingest_priors(p, ["A\r", "A\rB"]) == {"A\r": 1.0, "A\rB": 2.0}


@pytest.mark.parametrize("name,loader,edit,where", [
    ("priors.csv", ingest_priors, lambda t: t.replace("B14,0.1833", 'B14,"0.1"5'),
     ":15: ',' expected after '\"'"),
    ("scores.csv", ingest_scores, lambda t: t + 'e9,B1,"5', ":44: unexpected end of data"),
], ids=["prior-text-after-quote", "score-unterminated-quote"])
def test_malformed_csv_quoting_is_parse_error(tmp_path, example, name, loader, edit, where):
    # a lenient CSV reader reads these as prior 0.15 for B14 and score 5
    ids, _ = ingest_matrices(example["matrices.json"])
    p = write(tmp_path / name, edit(example[name].read_text()))
    with pytest.raises(errors.ParseError) as exc:
        loader(p, ids)
    assert str(exc.value) == f"{p}{where}"
    assert exc.value.line == int(where.split(":")[1])


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_out_of_range_prior_names_file_and_line(tmp_path, value):
    p = write(tmp_path / "p.csv", f"indicator,lambda\nA,0.5\nB,{value}\n")
    with pytest.raises(errors.DegeneratePriors) as exc:
        ingest_priors(p, IDS)
    assert str(exc.value) == (f"{p}:3: prior {float(value)!r} is not a "
                              f"nonnegative finite real")
    assert (exc.value.path, exc.value.line, exc.value.field) == (p, 3, None)
    assert exc.value.args == (f"prior {float(value)!r} is not a nonnegative finite real",)


@pytest.mark.parametrize("loader, text", [
    (ingest_priors, "indicator,lambda\nA,0.5\nB,0_5\n"),
    (ingest_scores, "expert_id,indicator,score\ne1,A,5\ne1,B,1_0\n"),
    (ingest_scores, "expert_id,indicator,score\ne1,A,5\ne1,B, \u0665 \n"),
], ids=["prior-0_5", "score-1_0", "score-arabic-indic-5"])
def test_csv_number_is_ascii_without_underscore(tmp_path, loader, text):
    # float() reads each of these cells (as 5.0, 10.0 and 5.0)
    p = write(tmp_path / "in.csv", text)
    with pytest.raises(errors.ParseError) as exc:
        loader(p, IDS)
    assert str(exc.value).startswith(f"{p}:3: ")
    assert str(exc.value).endswith(" is not a number")


def test_cli_underscored_prior_exit_1(tmp_path, capsys):
    paths = export_example_inputs(tmp_path / "in")
    text = paths["priors.csv"].read_text()
    paths["priors.csv"].write_text(text.replace("B1,0.2333", "B1,0_5"))
    code = cli.run(["evaluate", "--scores", str(paths["scores.csv"]),
                    "--matrices", str(paths["matrices.json"]),
                    "--priors", str(paths["priors.csv"]),
                    "--ri-table", str(paths["ri.json"])])
    assert code == 1
    assert f"{paths['priors.csv']}:2: prior '0_5' is not a number" in capsys.readouterr().err


# --- fuzzing ------------------------------------------------------------------------

LOADERS = {
    "scores.csv": lambda p: ingest_scores(p, IDS),
    "priors.csv": lambda p: ingest_priors(p, IDS),
    "matrices.json": ingest_matrices,
    "ri.json": load_ri_table,
    "fixtures.json": lambda p: load_bpa_fixtures(p, IDS),
    "bpas.json": load_bpa_list,
}
JSON_FILES = [name for name in LOADERS if name.endswith(".json")]

_CSV_PIECES = ["expert_id,indicator,score", "indicator,lambda", "e1,A,5", "e1,B,7.5",
               "A,0.5", "B,1e400", "A", ",", '"', '"e\n1"', "nan", "-1", "\n", "\r",
               "\r\n", "\x00", "\ufeff", "\xe9"]
_KEYS = ["indicators", "experts", "id", "matrix", "frame", "masses", "subset",
         "mass", "bpas", "A", "B", "H", "3", "14"]

raw_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=12).map(lambda p: "".join(p).encode()),
    st.lists(st.sampled_from(_CSV_PIECES + [b"\xe9", b"\xef\xbb\xbf"]), max_size=12).map(
        lambda p: b"".join(x if isinstance(x, bytes) else x.encode() for x in p)),
)
json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(),
              st.integers(min_value=-10**420, max_value=10**420),
              st.sampled_from(_KEYS + FRAME_NAMES)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=16,
)

_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def check_loader(name, path):
    try:
        LOADERS[name](path)
    except errors.IoError:
        pass
    except errors.EvicritError as e:
        # the loader locates every fault in its file, and a fault in a CSV row
        # names the row's line; the header, the encoding and coverage have none
        assert e.path == path and str(e).startswith(str(path))
        if name.endswith(".csv"):
            whole_file = (isinstance(e, errors.MissingIndicator)
                          or e.args[0].startswith(("expected header", "byte ")))
            assert (e.line is None) == whole_file


def cli_argv(name, path, example):
    """A command that reads ``path`` in the slot of ``name``, the example elsewhere."""
    slots = {"--scores": example["scores.csv"], "--matrices": example["matrices.json"],
             "--priors": example["priors.csv"], "--ri-table": example["ri.json"]}
    if name == "bpas.json":
        return ["fuse", "--bpas", str(path)]
    if name == "fixtures.json":
        slots["--bpa-fixtures"] = path
    else:
        slots[{"scores.csv": "--scores", "priors.csv": "--priors",
               "matrices.json": "--matrices", "ri.json": "--ri-table"}[name]] = path
    return ["evaluate", *(str(x) for item in slots.items() for x in item)]


def check_cli(name, path, example):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(cli_argv(name, path, example))
    assert code in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def example(tmp_path_factory):
    return export_example_inputs(tmp_path_factory.mktemp("example"))


@pytest.mark.parametrize("name", list(LOADERS))
@_FUZZ
@given(data=raw_bytes)
def test_loaders_on_arbitrary_bytes(tmp_path, name, data):
    check_loader(name, write(tmp_path / name, data))


@pytest.mark.parametrize("name", JSON_FILES)
@_FUZZ
@given(doc=json_docs)
def test_json_loaders_on_json_documents(tmp_path, name, doc):
    check_loader(name, write(tmp_path / name, json.dumps(doc)))


@pytest.mark.parametrize("name", list(LOADERS))
@settings(_FUZZ, max_examples=20)
@given(data=raw_bytes)
def test_cli_exit_codes_on_arbitrary_bytes(tmp_path, example, name, data):
    check_cli(name, write(tmp_path / name, data), example)


@pytest.mark.parametrize("name", JSON_FILES)
@settings(_FUZZ, max_examples=20)
@given(doc=json_docs)
def test_cli_exit_codes_on_json_documents(tmp_path, example, name, doc):
    check_cli(name, write(tmp_path / name, json.dumps(doc)), example)
