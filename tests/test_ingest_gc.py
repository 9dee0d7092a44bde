"""The input loaders run with the cyclic garbage collector paused.

Parsed JSON and CSV hold no reference cycles, so a collector pass during a
load finds nothing to free; the loaders pause the collector for their whole
run.  These tests pin the pause, the state each loader leaves behind, and
the premise that makes the pause safe: a load leaves no cyclic garbage.
"""

import gc
import json
from contextlib import contextmanager

import numpy as np
import pytest

from evicrit import errors
from evicrit.core import bpa_to_dict
from evicrit.datasets import export_example_inputs
from evicrit.fuzzy import membership, to_bpa
from evicrit.pipeline import (
    ingest_matrices,
    ingest_priors,
    ingest_scores,
    load_bpa_fixtures,
    load_bpa_list,
    load_ri_table,
)

EXPERTS = 256
INDICATORS = 14
SAATY = np.array([1 / 9, 1 / 7, 1 / 5, 1 / 3, 1.0, 3.0, 5.0, 7.0, 9.0])


@contextmanager
def collector(enabled):
    """The collector switched on or off for the block, then as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def passes_during(load):
    """The collector passes begun while ``load()`` runs, from zeroed counts."""
    starts = [0]

    def count(phase, _info):
        if phase == "start":
            starts[0] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        load()
    finally:
        gc.callbacks.remove(count)
    return starts[0]


def write_panel(directory):
    """A reciprocal expert panel: (matrices.json, scores.csv, indicator ids)."""
    rng = np.random.default_rng(7)
    ids = [f"C{j + 1}" for j in range(INDICATORS)]
    upper = np.triu_indices(INDICATORS, 1)
    experts = []
    for e in range(EXPERTS):
        matrix = np.ones((INDICATORS, INDICATORS))
        matrix[upper] = rng.choice(SAATY, size=len(upper[0]))
        matrix.T[upper] = 1.0 / matrix[upper]
        experts.append({"id": f"E{e + 1}", "matrix": matrix.tolist()})
    matrices = directory / "matrices.json"
    matrices.write_text(json.dumps({"indicators": ids, "experts": experts}))
    scores = rng.integers(0, 11, size=(EXPERTS, INDICATORS))
    lines = ["expert_id,indicator,score"]
    lines += [f"E{e + 1},{i},{scores[e, j]}"
              for e in range(EXPERTS) for j, i in enumerate(ids)]
    csv_path = directory / "scores.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return matrices, csv_path, ids


@pytest.fixture()
def loads(tmp_path):
    """Each loader bound to a valid input file: name -> zero-argument call."""
    inputs = export_example_inputs(tmp_path / "inputs")
    ids, _ = ingest_matrices(inputs["matrices.json"])
    bpas = [to_bpa(membership(x)) for x in np.linspace(0.0, 10.0, len(ids))]
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(json.dumps(
        {i: bpa_to_dict(b) for i, b in zip(ids, bpas)}))
    bpa_list = tmp_path / "bpas.json"
    bpa_list.write_text(json.dumps({"bpas": [bpa_to_dict(b) for b in bpas]}))
    return {
        "ingest_matrices": lambda: ingest_matrices(inputs["matrices.json"]),
        "ingest_scores": lambda: ingest_scores(inputs["scores.csv"], ids),
        "ingest_priors": lambda: ingest_priors(inputs["priors.csv"], ids),
        "load_ri_table": lambda: load_ri_table(inputs["ri.json"]),
        "load_bpa_fixtures": lambda: load_bpa_fixtures(fixtures, ids),
        "load_bpa_list": lambda: load_bpa_list(bpa_list),
    }


MALFORMED = {
    "ingest_matrices": (ingest_matrices, "matrices.json", '{"indicators": [',
                        ()),
    "ingest_scores": (ingest_scores, "scores.csv", "expert,indicator\n", ("A",)),
    "ingest_priors": (ingest_priors, "priors.csv", "indicator\n", ("A",)),
    "load_ri_table": (load_ri_table, "ri.json", "[]", ()),
    "load_bpa_fixtures": (load_bpa_fixtures, "fixtures.json", "[]", ("A",)),
    "load_bpa_list": (load_bpa_list, "bpas.json", "{}", ()),
}
LOADERS = sorted(MALFORMED)


def test_expert_panel_loads_start_no_collector_pass(tmp_path):
    matrices, scores, ids = write_panel(tmp_path)
    assert list(ingest_matrices(matrices)[0]) == ids
    assert list(ingest_scores(scores, ids)) == ids
    with collector(True):
        passes = [passes_during(lambda: ingest_matrices(matrices)),
                  passes_during(lambda: ingest_scores(scores, ids))]
    assert passes == [0, 0]


@pytest.mark.parametrize("name", LOADERS)
@pytest.mark.parametrize("enabled", [True, False])
def test_loader_leaves_the_collector_as_it_found_it(tmp_path, loads, name,
                                                    enabled):
    loader, file_name, text, args = MALFORMED[name]
    bad = tmp_path / "malformed" / file_name
    bad.parent.mkdir()
    bad.write_text(text)
    with collector(enabled):
        loads[name]()
        assert gc.isenabled() is enabled
        with pytest.raises(errors.ParseError):
            loader(bad, *args)
        assert gc.isenabled() is enabled
        # no file name holds a NUL, so that path fails as a missing file does
        for path in (bad.parent / "missing", f"{bad.parent}/a\0b"):
            with pytest.raises(errors.IoError) as exc:
                loader(path, *args)
            # the message names the file once, so the error carries no path
            assert str(exc.value).startswith(f"cannot read {path}: ")
            assert exc.value.path is None
            assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", LOADERS)
def test_loader_leaves_no_cyclic_garbage(loads, name):
    gc.collect()
    result = loads[name]()
    assert gc.collect() == 0
    assert result
