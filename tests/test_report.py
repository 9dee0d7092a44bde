"""The one JSON encoder: the bytes and errors of json.dumps(..., indent=2);
the chart is well-formed XML whatever its ids, and every output gives its
ids back as the inputs spelled them."""

import csv
import json
import math
import re
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evicrit.core import Label
from evicrit.datasets import export_example_inputs
from evicrit.entropy import DecisionMatrix, build_table
from evicrit.pipeline import PipelineConfig, run_pipeline, windows
from evicrit.report import emit_chart, json_text

# non-ASCII, control, quote and backslash characters, then anything
_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\xe9 \U0001f600'),
                          st.characters()))
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]),
    st.floats())
_INTS = st.one_of(st.sampled_from([2**64, 2**64 + 1, -(2**70), 10**30]), st.integers())


class _Str(str):
    pass


class _Dict(dict):
    pass


# np.float64 and the IntEnum Label are float and int subclasses; _Str and
# _Dict take the writer's subclass branches, as a leaf, a key and an object
_LEAVES = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none(),
                    _FLOATS.map(np.float64), st.sampled_from(Label), _TEXT.map(_Str))
_KEYS = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none(), _TEXT.map(_Str))
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(_KEYS, children),
                               st.dictionaries(_KEYS, children).map(_Dict)),
    max_leaves=40)


@given(doc=_DOCS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    np.int64(3), {1, 2}, object(), {(1, 2): 3},
    [{"a": np.int64(3)}], ({"a": [{1, 2}]},), {"a": [object()]}, [{"a": {(1, 2): 3}}],
], ids=["int64", "set", "object", "tuple-key", "nested-int64", "nested-set",
        "nested-object", "nested-tuple-key"])
def test_json_text_raises_the_type_errors_of_json_dumps(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)


def test_json_text_does_not_run_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    doc = {"a": [1, 2.5, "x", None, True, (), {}], 3: {"b": np.float64(0.5)}}
    assert json_text(doc).startswith('{\n  "a": [\n    1,\n    2.5,')


def test_chart_ids_are_escaped(tmp_path):
    ids = ("B1<&", "a>b", 'say "x"', "it's", "&amp;", "<text>")
    values = np.arange(1.0, 13.0).reshape(2, 6)
    table = build_table(DecisionMatrix(values, ids), {i: 1.0 for i in ids})
    root = ElementTree.parse(emit_chart(SimpleNamespace(entropy_table=table),
                                        tmp_path / "c.svg")).getroot()
    svg = "{http://www.w3.org/2000/svg}"
    labels = [t.text for t in root.iter(f"{svg}text") if t.get("text-anchor") == "middle"]
    assert labels == list(ids)
    titles = [t.text.rsplit(" ", 1)[0] for t in root.iter(f"{svg}title")]
    assert titles == [i for i in ids for _ in table.COLUMNS]


# XML 1.0's Char production; every other character is drawn as U+FFFD
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_IDS = st.lists(st.text(st.one_of(st.sampled_from("\x00\x01\t\n\r\x0b\x1f\ufffe\uffff<&>\" "),
                                  st.characters())),
                min_size=2, max_size=4, unique=True)


@given(ids=_IDS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chart_parses_whatever_the_ids(tmp_path, ids):
    values = np.arange(1.0, 2.0 * len(ids) + 1.0).reshape(2, len(ids))
    table = build_table(DecisionMatrix(values, ids))
    root = ElementTree.parse(emit_chart(SimpleNamespace(entropy_table=table),
                                        tmp_path / "c.svg")).getroot()
    svg = "{http://www.w3.org/2000/svg}"
    labels = [t.text or "" for t in root.iter(f"{svg}text") if t.get("text-anchor") == "middle"]
    assert labels == [_NOT_XML_CHAR.sub("\ufffd", i) for i in ids]


# --- ids through every output ------------------------------------------------------

def renamed_example(dest, ids):
    """The example inputs in ``dest`` with its 14 ids replaced by ``ids``."""
    paths = export_example_inputs(dest)
    doc = json.loads(paths["matrices.json"].read_text(encoding="utf-8"))
    new = dict(zip(doc["indicators"], ids))
    doc["indicators"] = list(ids)
    paths["matrices.json"].write_text(json.dumps(doc), encoding="utf-8")
    for name in ("scores.csv", "priors.csv"):  # the id is the next-to-last column
        with open(paths[name], encoding="utf-8", newline="") as f:
            rows = [[*row[:-2], new.get(row[-2], row[-2]), row[-1]] for row in csv.reader(f)]
        with open(paths[name], "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows(rows)
    return paths


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f, strict=True))[1:]


def check_ids_come_back(tmp_path, ids):
    """Run the renamed example in every format with a chart; every output
    parses and holds the ids as the inputs spelled them."""
    paths = renamed_example(tmp_path / "in", ids)
    groups = ["+".join(w) for w in windows(ids, 4, 2)]
    for fmt in ("text", "csv", "json"):
        out = tmp_path / fmt
        run_pipeline(PipelineConfig(
            scores=paths["scores.csv"], matrices=paths["matrices.json"],
            priors=paths["priors.csv"], ri_table=paths["ri.json"], alpha=0.8,
            out_dir=out, fmt=fmt, chart=out / "weights.svg"))
        docs = [json.loads((out / "manifest.json").read_text(encoding="utf-8"))]
        if fmt == "json":
            docs.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
        for doc in docs:
            assert [row["indicator"] for row in doc["entropy_table"]] == list(ids)
            assert [row["indicator"] for row in doc["ratings"]] == list(ids)
            assert ["+".join(w["indicators"]) for w in doc["fusion"]["windows"]] == groups
            for key in ("weight", "adjusted_weight"):
                assert sorted(e["id"] for e in doc["rankings"][key]["entries"]) == sorted(ids)
        if fmt == "csv":
            assert [row[0] for row in csv_rows(out / "entropy_table.csv")] == list(ids)
            assert [row[0] for row in csv_rows(out / "ratings.csv")] == list(ids)
            assert [row[0] for row in csv_rows(out / "fusion.csv")] == [*groups, "Average"]
            ranked = csv_rows(out / "ranking.csv")
            for key in ("weight", "adjusted_weight"):
                assert sorted(row[2] for row in ranked if row[0] == key) == sorted(ids)
        root = ElementTree.parse(out / "weights.svg").getroot()
        labels = [t.text or "" for t in root.iter("{http://www.w3.org/2000/svg}text")
                  if t.get("text-anchor") == "middle"]
        assert labels == [_NOT_XML_CHAR.sub("\ufffd", i) for i in ids]


def test_an_id_with_a_cr_comes_back_from_every_output(tmp_path):
    # B1 as "B1\rx", its scores and prior correctly quoted
    check_ids_come_back(tmp_path, ("B1\rx", *(f"B{i}" for i in range(2, 15))))


def test_ids_with_markup_and_a_c0_control_come_back_from_every_output(tmp_path):
    # "B1<&" is escaped in the chart; XML 1.0 holds no U+0001 even as a
    # reference, so "B2\x01" is drawn as "B2\ufffd"
    check_ids_come_back(tmp_path, ("B1<&", "B2\x01", *(f"B{i}" for i in range(3, 15))))


# the characters CSV, JSON, XML and line splitting treat apart; no NUL, which
# the csv module refuses, and no lone surrogate, which no UTF-8 file holds
_ID_CHARS = st.one_of(
    st.sampled_from(",\"'\n\r<&>+\t\u2028\ufeff\U0001f600"),
    st.characters(min_codepoint=1, max_codepoint=31),
    st.characters(min_codepoint=1))


@given(ids=st.lists(st.text(_ID_CHARS, max_size=40), min_size=14, max_size=14, unique=True))
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_ids_come_back_from_every_output(tmp_path_factory, ids):
    check_ids_come_back(tmp_path_factory.mktemp("ids"), tuple(ids))
