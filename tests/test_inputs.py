"""Malformed input: every loader and CLI run ends in a value or an EvicritError.

Fixed regression cases for inputs that used to raise a traceback or be
accepted silently, plus hypothesis fuzzing of the six loaders and of the
command line on the same files.
"""

import contextlib
import io
import json

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
], ids=["mass-true", "mass-string", "cell-true", "cell-string", "ri-string",
        "ri-key-underscore", "ri-key-space", "ri-key-plus"])
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


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_out_of_range_prior_names_file_and_line(tmp_path, value):
    p = write(tmp_path / "p.csv", f"indicator,lambda\nA,0.5\nB,{value}\n")
    with pytest.raises(errors.DegeneratePriors) as exc:
        ingest_priors(p, IDS)
    assert str(exc.value) == (f"{p}:3: prior {float(value)!r} is not a "
                              f"nonnegative finite real")


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
    except errors.EvicritError:
        pass


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
