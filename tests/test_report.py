"""The one JSON encoder: the bytes and errors of json.dumps(..., indent=2);
the chart is well-formed XML whatever its ids."""

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
from evicrit.entropy import DecisionMatrix, build_table
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
