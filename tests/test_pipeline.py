"""Ingestion, orchestration, emission, and the command line."""

import builtins
import hashlib
import importlib.metadata
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import evicrit
from evicrit import cli, errors
from evicrit.ahp import CR_THRESHOLD
from evicrit.core import FRAME, Subset, bpa_to_dict
from evicrit.datasets import (
    example_input_text,
    export_example_inputs,
    reference_fusion,
    reference_ratings,
    reference_weights,
)
from evicrit.entropy import EntropyTable
from evicrit.report import _atomic_write, json_text
from evicrit.pipeline import (
    PipelineConfig,
    ingest_matrices,
    ingest_priors,
    ingest_scores,
    load_bpa_fixtures,
    load_ri_table,
    run_pipeline,
    windows,
)
from evicrit.selftest import consistent_matrix, random_reciprocal


#: the ids of the bundled example, in its matrices file's order
CATALOG_IDS = tuple(f"B{i}" for i in range(1, 15))


@pytest.fixture()
def inputs(tmp_path):
    return export_example_inputs(tmp_path / "inputs")


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# --- windows -----------------------------------------------------------------

def test_windows_cover_fourteen_ids():
    ids = [f"B{i}" for i in range(1, 15)]
    got = windows(ids, 4, 2)
    assert len(got) == 6
    assert got[0] == ("B1", "B2", "B3", "B4")
    assert got[-1] == ("B11", "B12", "B13", "B14")


def test_windows_edges():
    ids = ["a", "b", "c"]
    assert windows(ids, 3, 1) == (("a", "b", "c"),)
    assert windows(ids, 2, 5) == (("a", "b"),)
    assert windows(ids, 1, 1) == (("a",), ("b",), ("c",))
    with pytest.raises(errors.ConfigError):
        windows(ids, 4, 1)
    with pytest.raises(errors.ConfigError):
        windows(ids, 2, 0)


# --- ingestion ---------------------------------------------------------------

def test_ingest_scores_happy_path(inputs):
    means = ingest_scores(inputs["scores.csv"], CATALOG_IDS)
    assert tuple(means) == CATALOG_IDS
    assert means["B1"] == 5.0
    assert means["B2"] == 10.0
    assert means["B10"] == 0.0


def test_ingest_scores_rejects_bad_header(tmp_path):
    p = write(tmp_path / "s.csv", "expert,indicator,score\ne1,B1,5\n")
    with pytest.raises(errors.ParseError):
        ingest_scores(p, CATALOG_IDS)


def test_ingest_scores_out_of_range_names_line(tmp_path):
    rows = ["expert_id,indicator,score"]
    rows += [f"e1,{i},5" for i in CATALOG_IDS]
    rows[3] = "e1,B3,11"
    p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
    with pytest.raises(errors.ScoreOutOfRange) as exc:
        ingest_scores(p, CATALOG_IDS)
    assert ":4:" in str(exc.value)


def test_ingest_scores_unknown_indicator(tmp_path):
    p = write(tmp_path / "s.csv", "expert_id,indicator,score\ne1,B99,5\n")
    with pytest.raises(errors.UnknownIndicator):
        ingest_scores(p, CATALOG_IDS)


def test_ingest_scores_missing_indicator(tmp_path):
    rows = ["expert_id,indicator,score"]
    rows += [f"e1,{i},5" for i in CATALOG_IDS if i != "B14"]
    p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
    with pytest.raises(errors.MissingIndicator) as exc:
        ingest_scores(p, CATALOG_IDS)
    assert "B14" in str(exc.value)


def test_ingest_scores_non_numeric(tmp_path):
    p = write(tmp_path / "s.csv", "expert_id,indicator,score\ne1,B1,five\n")
    with pytest.raises(errors.ParseError):
        ingest_scores(p, CATALOG_IDS)


def test_ingest_matrices_happy_path(inputs):
    ids, experts = ingest_matrices(inputs["matrices.json"])
    assert ids == CATALOG_IDS
    assert len(experts) == 3
    assert experts[0][1].order == 14


def test_ingest_matrices_reciprocity_violation(tmp_path):
    doc = {"indicators": ["a", "b"],
           "experts": [{"id": "e1", "matrix": [[1.0, 2.0], [0.4, 1.0]]}]}
    p = write(tmp_path / "m.json", json.dumps(doc))
    with pytest.raises(errors.InvalidMatrix) as exc:
        ingest_matrices(p)
    msg = str(exc.value)
    assert "e1" in msg and "(1,2)" in msg and "(2,1)" in msg


def test_ingest_matrices_structure_errors(tmp_path):
    with pytest.raises(errors.ParseError):
        ingest_matrices(write(tmp_path / "a.json", "[1, 2]"))
    with pytest.raises(errors.ParseError):
        ingest_matrices(write(tmp_path / "b.json",
                              json.dumps({"indicators": ["a", "b"], "experts": []})))
    ragged = {"indicators": ["a", "b"],
              "experts": [{"id": "e1", "matrix": [[1.0, 2.0], [0.5]]}]}
    with pytest.raises(errors.ParseError):
        ingest_matrices(write(tmp_path / "c.json", json.dumps(ragged)))
    wrong_shape = {"indicators": ["a", "b", "c"],
                   "experts": [{"id": "e1", "matrix": [[1.0, 2.0], [0.5, 1.0]]}]}
    with pytest.raises(errors.OrderMismatch):
        ingest_matrices(write(tmp_path / "d.json", json.dumps(wrong_shape)))


def test_ingest_priors(tmp_path, inputs):
    priors = ingest_priors(inputs["priors.csv"], CATALOG_IDS)
    assert len(priors) == 14
    assert priors["B7"] == 0.4
    dup = write(tmp_path / "p.csv", "indicator,lambda\nB1,0.5\nB1,0.6\n")
    with pytest.raises(errors.ParseError):
        ingest_priors(dup, CATALOG_IDS)


def test_load_ri_table(inputs, tmp_path):
    table = load_ri_table(inputs["ri.json"])
    assert table[14] == 1.57
    with pytest.raises(errors.ParseError):
        load_ri_table(write(tmp_path / "ri.json", '{"three": 0.58}'))
    with pytest.raises(errors.ParseError):
        load_ri_table(write(tmp_path / "ri2.json", '{"3": -1.0}'))
    # the built-in orders stay; an RI of 0 is only valid where CR is always 0
    assert table[3] == 0.58
    assert load_ri_table(write(tmp_path / "ri3.json", '{"2": 0}'))[2] == 0.0
    for bad in ('{"14": 0}', '{"3": 0.0}', '{"14": Infinity}', '{"2": -5}'):
        with pytest.raises(errors.ParseError):
            load_ri_table(write(tmp_path / "ri4.json", bad))


def test_load_bpa_fixtures(tmp_path):
    doc = {i: {"frame": ["VL", "L", "M", "H", "VH"],
               "masses": [{"subset": ["H"], "mass": 1.0}]} for i in CATALOG_IDS}
    fixtures = load_bpa_fixtures(write(tmp_path / "f.json", json.dumps(doc)), CATALOG_IDS)
    assert set(fixtures) == set(CATALOG_IDS)
    backwards = CATALOG_IDS[::-1]
    assert tuple(load_bpa_fixtures(tmp_path / "f.json", backwards)) == backwards
    with pytest.raises(errors.UnknownIndicator):
        load_bpa_fixtures(tmp_path / "f.json", CATALOG_IDS[:-1])
    del doc["B14"]
    with pytest.raises(errors.MissingIndicator):
        load_bpa_fixtures(write(tmp_path / "g.json", json.dumps(doc)), CATALOG_IDS)


def test_load_bpa_fixtures_rejects_non_list_fields(tmp_path):
    doc = {i: {"frame": ["VL", "L", "M", "H", "VH"],
               "masses": [{"subset": ["H"], "mass": 1.0}]} for i in CATALOG_IDS}
    doc["B3"] = {"frame": ["H"], "masses": 5}
    with pytest.raises(errors.ParseError) as exc:
        load_bpa_fixtures(write(tmp_path / "f.json", json.dumps(doc)), CATALOG_IDS)
    assert "B3" in str(exc.value) and '"masses"' in str(exc.value)
    doc["B3"] = {"frame": 5, "masses": []}
    with pytest.raises(errors.ParseError) as exc:
        load_bpa_fixtures(write(tmp_path / "g.json", json.dumps(doc)), CATALOG_IDS)
    assert '"frame"' in str(exc.value)


def test_load_bpa_fixtures_smaller_frame_is_the_same_bpa(tmp_path):
    masses = [{"subset": ["M"], "mass": 0.6}, {"subset": ["L", "M", "H"], "mass": 0.4}]
    full = {i: {"frame": [l.name for l in FRAME], "masses": masses} for i in CATALOG_IDS}
    narrow = dict(full, B3={"frame": ["L", "M", "H"], "masses": masses})
    got = load_bpa_fixtures(write(tmp_path / "n.json", json.dumps(narrow)), CATALOG_IDS)
    want = load_bpa_fixtures(write(tmp_path / "f.json", json.dumps(full)), CATALOG_IDS)
    assert got == want


def test_load_bpa_fixtures_rejects_focal_set_outside_its_frame(tmp_path):
    doc = {i: {"frame": [l.name for l in FRAME],
               "masses": [{"subset": ["H"], "mass": 1.0}]} for i in CATALOG_IDS}
    doc["B3"] = {"frame": ["L", "M"], "masses": [{"subset": ["M", "H"], "mass": 1.0}]}
    p = write(tmp_path / "f.json", json.dumps(doc))
    with pytest.raises(errors.FrameMismatch) as exc:
        load_bpa_fixtures(p, CATALOG_IDS)
    assert str(exc.value) == f"{p}: B3: focal set {{M,H}} outside frame {{L,M}}"


def test_missing_file_is_io_error():
    with pytest.raises(errors.IoError):
        ingest_scores("/nonexistent/scores.csv", CATALOG_IDS)


def test_run_pipeline_with_a_nul_path_is_an_io_error(inputs, tmp_path):
    with pytest.raises(errors.IoError) as exc:
        run_example(inputs, scores="a\0b.csv")
    assert exc.value.stage == "ingest"
    assert str(exc.value) == "cannot read a\0b.csv: embedded null byte"
    out = tmp_path / "a\0b"
    with pytest.raises(errors.IoError) as exc:
        run_example(inputs, out_dir=out)
    assert exc.value.stage == "emit"
    assert str(exc.value) == f"cannot write {out / 'report.txt'}: embedded null byte"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inputs"]


def test_ingest_scores_rejects_duplicate_row(tmp_path, inputs):
    text = inputs["scores.csv"].read_text()
    first_row = text.splitlines()[1]
    assert first_row.startswith("e1,B1,")
    p = write(tmp_path / "s.csv", text + first_row + "\n")
    last_line = len(text.splitlines()) + 1
    with pytest.raises(errors.ParseError) as exc:
        ingest_scores(p, CATALOG_IDS)
    assert f":{last_line}:" in str(exc.value) and "line 2" in str(exc.value)


def test_ingest_priors_covers_exactly_the_ids(tmp_path, inputs):
    text = inputs["priors.csv"].read_text()
    extra = write(tmp_path / "p.csv", text + "B99,0.5\n")
    with pytest.raises(errors.UnknownIndicator) as exc:
        ingest_priors(extra, CATALOG_IDS)
    assert f":{len(text.splitlines()) + 1}:" in str(exc.value)
    short = write(tmp_path / "q.csv", "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("B7,")))
    with pytest.raises(errors.MissingIndicator) as exc:
        ingest_priors(short, CATALOG_IDS)
    assert "B7" in str(exc.value)
    assert tuple(ingest_priors(inputs["priors.csv"], CATALOG_IDS[::-1])) == CATALOG_IDS[::-1]


def test_ingest_matrices_rejects_duplicate_expert_id(tmp_path, inputs):
    doc = json.loads(inputs["matrices.json"].read_text())
    doc["experts"][1]["id"] = doc["experts"][0]["id"]
    with pytest.raises(errors.ParseError) as exc:
        ingest_matrices(write(tmp_path / "m.json", json.dumps(doc)))
    assert "experts[1]" in str(exc.value)


def test_inputs_with_byte_order_mark(tmp_path, inputs):
    marked = {}
    for name, path in inputs.items():
        marked[name] = tmp_path / "bom" / name
        marked[name].parent.mkdir(exist_ok=True)
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain = run_example(inputs).to_dict()
    bom = run_example(marked).to_dict()
    for key in ("consistency", "entropy_table", "ratings", "fusion", "rankings"):
        assert bom[key] == plain[key]
    # digests stay over the bytes on disk, mark included
    for entry in bom["inputs"].values():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


def test_run_pipeline_reads_each_input_once(tmp_path, inputs, monkeypatch):
    doc = {i: {"frame": ["VL", "L", "M", "H", "VH"],
               "masses": [{"subset": ["H"], "mass": 1.0}]} for i in CATALOG_IDS}
    fixtures = write(tmp_path / "f.json", json.dumps(doc))
    opened = []
    path_open, builtin_open = Path.open, builtins.open

    def counting_path_open(self, *args, **kwargs):
        opened.append(Path(self))
        return path_open(self, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file))
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    manifest = run_example(inputs, bpa_fixtures=fixtures)
    monkeypatch.undo()
    paths = [*inputs.values(), fixtures]
    assert [opened.count(path) for path in paths] == [1] * len(paths)
    # the digests are over the bytes parsed, which are the bytes on disk
    for entry in manifest.inputs.values():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


# --- orchestration -----------------------------------------------------------

def run_example(inputs, **overrides):
    kwargs = dict(scores=inputs["scores.csv"], matrices=inputs["matrices.json"],
                  priors=inputs["priors.csv"], ri_table=inputs["ri.json"])
    kwargs.update(overrides)
    return run_pipeline(PipelineConfig(**kwargs))


def test_run_pipeline_reference_verdicts(inputs):
    manifest = run_example(inputs)
    assert manifest.consistency_report.acceptable
    assert manifest.rankings["weight"].top == "B8"
    assert manifest.rankings["adjusted_weight"].bottom == "B6"
    assert len(manifest.window_ids) == 6
    assert manifest.config["score_aggregation"] == "mean"
    assert manifest.config["bpa_source"] == "scores"
    assert set(manifest.timings) == {"ingest", "aggregate", "consistency",
                                     "weighting", "fuzzify", "fuse", "rank", "emit"}


def test_run_pipeline_matches_reference_tables(inputs):
    manifest = run_example(inputs)
    ref = reference_weights()
    assert manifest.entropy_table.ids == ref.ids
    for got, want in zip(manifest.entropy_table.entropy, ref.entropy):
        assert got == pytest.approx(want, abs=5e-4)
    by_id = {r.indicator: r.rating.name for r in reference_ratings()}
    for indicator_id, _, label in manifest.ratings:
        assert label == by_id[indicator_id]


def test_run_pipeline_is_deterministic(inputs):
    a = run_example(inputs).to_dict()
    assert "timings" not in a
    assert json_text(a) == json_text(run_example(inputs).to_dict())


@pytest.mark.parametrize("spellings", [(1, 1.0), (-0.0, 0, 0.0), (0.8, np.float64(0.8))],
                         ids=["one", "zero", "float64"])
def test_alpha_spellings_give_one_manifest(inputs, tmp_path, spellings):
    # one configuration, so one manifest text
    texts = set()
    for n, alpha in enumerate(spellings):
        run_example(inputs, alpha=alpha, out_dir=tmp_path / str(n))
        texts.add((tmp_path / str(n) / "manifest.json").read_bytes())
    assert len(texts) == 1


def test_run_pipeline_inconsistent_gate(tmp_path, inputs):
    rng = np.random.default_rng(33)
    wild = random_reciprocal(rng, 14)
    doc = {"indicators": list(CATALOG_IDS),
           "experts": [{"id": "e1", "matrix": wild.values.tolist()}]}
    bad = write(tmp_path / "wild.json", json.dumps(doc))
    with pytest.raises(errors.InconsistentMatrix) as exc:
        run_example(inputs, matrices=bad)
    assert exc.value.report is not None
    assert exc.value.report.cr >= 0.1
    assert exc.value.stage == "consistency"
    forced = run_example(inputs, matrices=bad, force=True)
    assert not forced.consistency_report.acceptable


def test_run_pipeline_stage_annotation(inputs, tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(errors.IoError) as exc:
        run_example(inputs, scores=missing)
    assert exc.value.stage == "ingest"


def test_run_pipeline_bpa_fixtures_override_scores(inputs, tmp_path):
    doc = {i: {"frame": ["VL", "L", "M", "H", "VH"],
               "masses": [{"subset": ["M", "H"], "mass": 0.5},
                          {"subset": ["VL", "L", "M", "H", "VH"], "mass": 0.5}]}
           for i in CATALOG_IDS}
    fixtures = write(tmp_path / "f.json", json.dumps(doc))
    manifest = run_example(inputs, bpa_fixtures=fixtures)
    assert manifest.config["bpa_source"] == "fixtures"
    # identical inputs in every window: no conflict anywhere
    assert all(r.conflict_k == 0.0 for r in manifest.window_results)


def test_run_pipeline_rejects_bad_config(inputs):
    with pytest.raises(errors.ConfigError):
        run_example(inputs, alpha=1.5)
    with pytest.raises(errors.ConfigError):
        run_example(inputs, overlap_mode="sometimes")
    with pytest.raises(errors.ConfigError):
        run_example(inputs, fmt="yaml")
    with pytest.raises(errors.ConfigError):
        run_example(inputs, window=0)


@pytest.mark.parametrize("field, value", [
    ("alpha", "0.8"), ("alpha", True), ("alpha", None),
    ("window", True), ("window", 2.5), ("window", "4"), ("stride", 2.0),
    ("force", "no"), ("force", 1),
    ("scores", None), ("matrices", None), ("matrices", b"m.json"),
    ("priors", 7), ("bpa_fixtures", True), ("ri_table", ["ri.json"]),
    ("out_dir", 5), ("chart", 3.5)])
def test_run_pipeline_rejects_wrongly_typed_config(tmp_path, field, value):
    # checked before any input is read: the paths need not exist
    config = PipelineConfig(**{"scores": tmp_path / "no-scores.csv",
                               "matrices": tmp_path / "no-matrices.json",
                               field: value})
    with pytest.raises(errors.ConfigError, match=field):
        run_pipeline(config)


@pytest.mark.parametrize("field, value, message", [
    ("overlap_mode", "sometimes",
     "overlap_mode must be one of ('adjacent', 'theta'), got 'sometimes'"),
    ("ci_denominator", "saaty",
     "ci_denominator must be one of ('paper', 'standard'), got 'saaty'"),
    ("fmt", "yaml", "format must be one of ('text', 'csv', 'json'), got 'yaml'")])
def test_run_pipeline_names_the_allowed_modes(tmp_path, field, value, message):
    config = PipelineConfig(**{"scores": tmp_path / "no-scores.csv",
                               "matrices": tmp_path / "no-matrices.json",
                               field: value})
    with pytest.raises(errors.ConfigError) as exc:
        run_pipeline(config)
    assert str(exc.value) == message


def test_run_pipeline_weight_ties_follow_matrices_order(tmp_path):
    # columns B10 and B2 of the aggregate are equal, so their weights tie
    # bit for bit; the tie keeps the order of "indicators", not B2 before B10
    ids = ["A", "B10", "B2"]
    x = 3.0
    matrices = {"indicators": ids,
                "experts": [{"id": "e1", "matrix": [[1, x, x], [1 / x, 1, 1],
                                                    [1 / x, 1, 1]]}]}
    scores = ["expert_id,indicator,score"] + [f"e1,{i},5" for i in ids]
    manifest = run_pipeline(PipelineConfig(
        scores=write(tmp_path / "scores.csv", "\n".join(scores) + "\n"),
        matrices=write(tmp_path / "matrices.json", json.dumps(matrices)),
        window=2, stride=1))
    weights = manifest.entropy_table.weights
    assert weights[1] == weights[2]
    assert [e[0] for e in manifest.rankings["weight"].entries] == ["A", "B10", "B2"]


def test_run_pipeline_takes_ids_from_matrices(tmp_path):
    ids = [f"T{j}" for j in range(1, 6)]
    rng = np.random.default_rng(5)
    matrices = {"indicators": ids,
                "experts": [{"id": f"x{k}", "matrix": consistent_matrix(rng, 5).values.tolist()}
                            for k in range(3)]}
    scores = ["expert_id,indicator,score"]
    scores += [f"x{k},{i},{(2 * k + j) % 11}" for k in range(3) for j, i in enumerate(ids)]
    priors = ["indicator,lambda"] + [f"{i},0.{j}" for j, i in enumerate(ids, start=1)]
    out = tmp_path / "out"
    manifest = run_pipeline(PipelineConfig(
        scores=write(tmp_path / "scores.csv", "\n".join(scores) + "\n"),
        matrices=write(tmp_path / "matrices.json", json.dumps(matrices)),
        priors=write(tmp_path / "priors.csv", "\n".join(priors) + "\n"),
        ri_table=write(tmp_path / "ri.json", '{"5": 1.11}'),
        window=2, stride=1, out_dir=out, fmt="csv"))
    assert manifest.consistency_report.ri == 1.11
    assert manifest.consistency_report.acceptable
    assert manifest.entropy_table.ids == tuple(ids)
    assert [i for i, _, _ in manifest.ratings] == ids
    assert manifest.window_ids == tuple(zip(ids, ids[1:]))
    assert (out / "ratings.csv").read_text().splitlines()[1].startswith("T1,")
    assert len((out / "fusion.csv").read_text().splitlines()) == 6  # header, 4 windows, average


def test_run_pipeline_follows_matrices_order(tmp_path, inputs):
    doc = json.loads(inputs["matrices.json"].read_text())
    order = [5, 0, 13, 2, 9, 1, 12, 7, 3, 11, 4, 10, 6, 8]
    doc["indicators"] = [doc["indicators"][j] for j in order]
    for expert in doc["experts"]:
        m = np.array(expert["matrix"])
        expert["matrix"] = m[np.ix_(order, order)].tolist()
    reordered = run_example(inputs, matrices=write(tmp_path / "m.json", json.dumps(doc)))
    ids = tuple(doc["indicators"])
    assert reordered.entropy_table.ids == ids
    assert tuple(i for i, _, _ in reordered.ratings) == ids
    assert reordered.window_ids == windows(ids, 4, 2)
    assert reordered.window_ids[0] == ("B6", "B1", "B14", "B3")
    plain = run_example(inputs)
    weights = dict(zip(plain.entropy_table.ids, plain.entropy_table.weights))
    for i, w in zip(reordered.entropy_table.ids, reordered.entropy_table.weights):
        assert w == pytest.approx(weights[i], rel=1e-12)
    assert sorted(reordered.ratings) == sorted(plain.ratings)


def test_run_pipeline_rejects_zero_ri(tmp_path, inputs):
    # an RI of 0 would make CR = 0 and let any matrix through the gate
    rng = np.random.default_rng(33)
    doc = {"indicators": list(CATALOG_IDS),
           "experts": [{"id": "e1", "matrix": random_reciprocal(rng, 14).values.tolist()}]}
    wild = write(tmp_path / "wild.json", json.dumps(doc))
    zero = write(tmp_path / "ri.json", '{"14": 0}')
    with pytest.raises(errors.ParseError) as exc:
        run_example(inputs, matrices=wild, ri_table=zero)
    assert exc.value.stage == "ingest"


def fusion_digest(manifest):
    text = json.dumps(manifest.to_dict()["fusion"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_example_fusion_is_pinned(inputs):
    # every window's k, masses and BetP, to the last bit
    manifest = run_example(inputs, alpha=0.8)
    assert fusion_digest(manifest) == (
        "6cef3377a3a70f04849c9371fa8fafe2c87dfb113b33276512167d2467e9f523")


def test_example_report_and_chart_are_pinned(inputs, tmp_path):
    # the text report, its description column included, and the chart
    out = tmp_path / "out"
    run_example(inputs, alpha=0.8, out_dir=out, fmt="text", chart=out / "weights.svg")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("report.txt", "weights.svg")}
    assert digests == {
        "report.txt": "187b667e07a5146ff5cc7b876a063ed398f879f7ec89577fef9b6e156581067a",
        "weights.svg": "651f385dc6eae2fd09afcfbece207e1ecc0bbe17bde0c2df3d7329c6e414410a"}


def test_example_csv_and_json_reports_are_pinned(inputs, tmp_path):
    # the four CSV tables and the JSON report, to the byte
    digests = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        run_example(inputs, alpha=0.8, out_dir=out, fmt=fmt)
        digests.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir() if path.name != "manifest.json"})
    assert digests == {
        "entropy_table.csv": "aa7d6ed5b597a1df8746784fc7984d135d6df017e99052b9dee599c84b8b0af5",
        "ratings.csv": "9b1fde7e98491721c2cc17b9172d9bf89e1e808d4dc196850f4f3e5e6b5f0eed",
        "fusion.csv": "e0f2ae3835a510e3ec849c81a1ab2702a7287781fbeaf7726f65f5d9490e908d",
        "ranking.csv": "e2ec104bde6721151f2de30b8e57ebcaa68298a0e17a965028757148da35ea98",
        "report.json": "2488ebbd0463c26ded1d4b9b4ab6a83f3b238a2ae65f82086e84d7e7e59836d8"}


def test_chart_without_priors_draws_only_the_columns_it_has(inputs, tmp_path):
    # E, d and W per indicator: no zero-height lambda and W_adj bars, no key for them
    chart = tmp_path / "weights.svg"
    assert cli.run(["evaluate", "--scores", str(inputs["scores.csv"]),
                    "--matrices", str(inputs["matrices.json"]),
                    "--ri-table", str(inputs["ri.json"]), "--chart", str(chart)]) == 0
    svg = chart.read_text()
    assert svg.count('class="bar"') == 14 * 3
    keys = [part.split("</text>")[0].rsplit(">", 1)[1]
            for part in svg.split('class="key"')[1:]]
    assert keys == ["E", "d", "W"]
    assert "lambda=" not in svg and "W_adj=" not in svg


def ratings_rows(report_text):
    """(id, description) of each row of a text report's Ratings table."""
    block = report_text.split("Ratings\n", 1)[1].split("\n\n", 1)[0]
    return [(line[2:12].rstrip(), line[27:]) for line in block.splitlines()[1:]]


def test_report_descriptions_come_from_the_catalog(inputs, tmp_path):
    out = tmp_path / "out"
    run_example(inputs, out_dir=out, fmt="text")
    catalog = [(r.indicator, r.description) for r in reference_ratings()]
    assert ratings_rows((out / "report.txt").read_text()) == catalog
    assert reference_ratings() is reference_ratings()  # read once per process


def test_report_descriptions_are_blank_outside_the_catalog(tmp_path):
    matrices = write(tmp_path / "m.json", json.dumps(
        {"indicators": ["a", "b"], "experts": [{"id": "e1", "matrix": [[1, 2], [0.5, 1]]}]}))
    scores = write(tmp_path / "s.csv", "expert_id,indicator,score\ne1,a,3\ne1,b,7\n")
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(scores=scores, matrices=matrices, window=2, stride=1,
                                out_dir=out, fmt="text"))
    assert ratings_rows((out / "report.txt").read_text()) == [("a", ""), ("b", "")]


def write_dense_fixtures(path):
    # 20-31 focal sets per indicator; integer weights over their sum keep
    # the fixture bytes free of transcendental functions
    rng = np.random.default_rng(20190424)
    doc = {}
    for indicator_id in CATALOG_IDS:
        count = int(rng.integers(20, 32))
        bits = rng.choice(np.arange(1, 32), size=count, replace=False)
        weights = rng.integers(1, 1000, size=count)
        masses = weights / weights.sum()
        doc[indicator_id] = {
            "frame": [l.name for l in FRAME],
            "masses": [{"subset": list(Subset(int(b)).names()), "mass": float(m)}
                       for b, m in zip(bits, masses)]}
    return write(path, json.dumps(doc))


def test_dense_fixture_fusion_is_pinned(inputs, tmp_path):
    fixtures = write_dense_fixtures(tmp_path / "dense.json")
    manifest = run_example(inputs, bpa_fixtures=fixtures, window=4, stride=2)
    assert fusion_digest(manifest) == (
        "e7145c194f197eb14c9f7d5ffe2d314297094c392a97ea06e56de3c9ef9202bb")


# --- emission ----------------------------------------------------------------

def test_emitted_files_and_round_trips(inputs, tmp_path):
    out = tmp_path / "out"
    manifest = run_example(inputs, out_dir=out, fmt="csv",
                           chart=tmp_path / "fig.svg")
    table = EntropyTable.from_csv((out / "entropy_table.csv").read_text())
    assert table == manifest.entropy_table
    ratings = (out / "ratings.csv").read_text().splitlines()
    assert ratings[0] == "indicator,score,label"
    assert len(ratings) == 15
    fusion = (out / "fusion.csv").read_text().splitlines()
    assert len(fusion) == 8  # header, six windows, average
    assert fusion[-1].startswith("Average,")
    parsed = json.loads((out / "manifest.json").read_text())
    assert parsed["version"] == manifest.version
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.count('class="bar"') == 70


def test_json_report_is_the_manifest_tables(inputs, tmp_path):
    out = tmp_path / "out"
    manifest = run_example(inputs, alpha=0.8, out_dir=out, fmt="json")
    sections = ("consistency", "entropy_table", "ratings", "fusion", "rankings")
    doc = manifest.to_dict()
    report = (out / "report.json").read_text()
    assert report == json.dumps({key: doc[key] for key in sections}, indent=2) + "\n"
    written = json.loads((out / "manifest.json").read_text())
    assert json.loads(report) == {key: written[key] for key in sections}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


def test_json_outputs_are_the_stdlib_indent_2_encoding(inputs, tmp_path, capsys):
    def assert_stdlib_bytes(text):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    dense = write_dense_fixtures(tmp_path / "dense.json")
    assert cli.run(["evaluate", *cli_inputs(inputs), "--alpha", "0.8", "--format", "json",
                    "--out-dir", str(tmp_path / "example")]) == 0
    run_example(inputs, bpa_fixtures=dense, window=4, stride=2,
                out_dir=tmp_path / "dense", fmt="json")
    for run in ("example", "dense"):
        for name in ("manifest.json", "report.json"):
            assert_stdlib_bytes((tmp_path / run / name).read_text())
    capsys.readouterr()
    assert cli.run(["consistency", "--matrices", str(inputs["matrices.json"]),
                    "--ri-table", str(inputs["ri.json"])]) == 0
    assert_stdlib_bytes(capsys.readouterr().out)
    bpas = {"bpas": list(json.loads(dense.read_text()).values())}
    assert cli.run(["fuse", "--bpas", str(write(tmp_path / "bpas.json", json.dumps(bpas)))]) == 0
    assert_stdlib_bytes(capsys.readouterr().out)


def test_writes_use_unique_temp_files(inputs, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json.tmp").mkdir(parents=True)
    assert cli.run(["evaluate", *cli_inputs(inputs), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "manifest.json.tmp", "report.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert (out / "report.txt").stat().st_mode & 0o777 == 0o666 & ~umask
    # a failed rename removes its temp file
    with pytest.raises(errors.IoError):
        _atomic_write(out / "manifest.json.tmp", "x")
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "manifest.json.tmp", "report.txt"]


def test_write_to_a_path_with_a_nul_is_an_io_error(tmp_path):
    # the temporary file is made, and removed when the rename fails
    path = tmp_path / "a\0b.txt"
    with pytest.raises(errors.IoError) as exc:
        _atomic_write(path, "x")
    assert str(exc.value) == f"cannot write {path}: embedded null byte"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("via", ["write", "weights-out", "fuse-out"])
def test_writes_take_a_name_of_up_to_name_max_bytes(inputs, tmp_path, capsys, via):
    path = tmp_path / "out" / ("a" * 246 + ".csv")  # 250 bytes
    if via == "write":
        _atomic_write(path, "data\n")
        assert path.read_text() == "data\n"
    else:
        # --out writes the bytes the subcommand prints
        if via == "weights-out":
            argv = ["weights", "--matrices", str(inputs["matrices.json"]),
                    "--priors", str(inputs["priors.csv"]), "--ri-table", str(inputs["ri.json"])]
        else:
            bpas = {"bpas": [bpa_to_dict(b) for _, b in reference_fusion().windows]}
            argv = ["fuse", "--bpas", str(write(tmp_path / "bpas.json", json.dumps(bpas)))]
        assert cli.run(argv) == 0
        stdout = capsys.readouterr().out
        assert cli.run([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == stdout
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_failed_report_write_leaves_no_manifest(inputs, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.txt").mkdir(parents=True)
    assert cli.run(["evaluate", *cli_inputs(inputs), "--out-dir", str(out)]) == 3
    assert "report.txt" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def file_ids(out):
    """Inode, mtime and mode of every file in ``out``."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_mode)
            for p in sorted(out.iterdir())}


def evaluate_argv(inputs, out, fmt, alpha="0.8"):
    return ["evaluate", *cli_inputs(inputs), "--alpha", alpha, "--format", fmt,
            "--out-dir", str(out), "--chart", str(out / "weights.svg")]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_identical_rerun_leaves_every_output_in_place(inputs, tmp_path, capsys, fmt):
    out, other = tmp_path / "out", tmp_path / "other"
    assert cli.run(evaluate_argv(inputs, out, fmt)) == 0
    first = file_ids(out)
    assert {"manifest.json", "weights.svg"} <= set(first)
    assert len(first) == (6 if fmt == "csv" else 3)
    assert cli.run(evaluate_argv(inputs, out, fmt)) == 0
    assert cli.run(evaluate_argv(inputs, other, fmt)) == 0
    capsys.readouterr()
    assert file_ids(out) == first
    # and a run into another directory writes the same bytes
    assert sorted(p.name for p in other.iterdir()) == list(first)
    for name in first:
        assert (out / name).read_bytes() == (other / name).read_bytes(), name


def test_changed_rerun_replaces_only_what_changed(inputs, tmp_path, capsys):
    def evaluate(out, alpha):
        assert cli.run(evaluate_argv(inputs, out, "csv", alpha)) == 0

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    evaluate(out, "0.8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    first = file_ids(out)
    evaluate(out, "0.7")
    evaluate(fresh, "0.7")
    capsys.readouterr()
    now = file_ids(out)
    changed = set()
    for name in first:
        data = (out / name).read_bytes()
        assert data == (fresh / name).read_bytes()
        if data != before[name]:
            changed.add(name)
            assert now[name][0] != first[name][0]
        else:
            assert now[name] == first[name]
    assert changed == {"fusion.csv", "ranking.csv", "manifest.json"}


@pytest.mark.parametrize("old", [b"ABCDEFG\r", b"abcdefg\n", b"abcdefg\rmore"],
                         ids=["same-length", "last-byte-differs", "longer-same-prefix"])
def test_write_replaces_a_file_with_other_bytes(tmp_path, old):
    path = tmp_path / "out.txt"
    path.write_bytes(old)
    ino = path.stat().st_ino
    _atomic_write(path, "abcdefg\r")
    assert path.read_bytes() == b"abcdefg\r"
    assert path.stat().st_ino != ino


def test_example_export_follows_the_write_rule(tmp_path):
    # a rerun keeps every file; a failed write names its path and leaves no temp file
    dest = tmp_path / "in"
    paths = export_example_inputs(dest)
    first = file_ids(dest)
    assert sorted(first) == sorted(paths) and export_example_inputs(dest) == paths
    assert file_ids(dest) == first
    blocked = tmp_path / "blocked"
    (blocked / "matrices.json").mkdir(parents=True)
    with pytest.raises(errors.IoError, match=r"^cannot write .*matrices\.json: "):
        export_example_inputs(blocked)
    assert sorted(p.name for p in blocked.iterdir()) == ["matrices.json", "scores.csv"]


def test_import_evicrit_loads_neither_report_nor_cli():
    code = "import sys, evicrit; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(evicrit.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True).stdout.split()
    assert "evicrit.pipeline" in loaded
    assert "evicrit.report" not in loaded and "evicrit.cli" not in loaded


def test_write_replaces_a_symlink_to_the_same_bytes(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"data\n")
    target_ids = file_ids(tmp_path)["target.txt"]
    link = tmp_path / "out.txt"
    link.symlink_to(target)
    _atomic_write(link, "data\n")
    assert not link.is_symlink() and link.read_bytes() == b"data\n"
    assert file_ids(tmp_path)["target.txt"] == target_ids


@pytest.mark.parametrize("text", ["data\n", ""])
def test_write_neither_blocks_on_nor_keeps_a_fifo(tmp_path, text):
    # an empty FIFO reads as the empty text, and is replaced all the same
    path = tmp_path / "out.txt"
    os.mkfifo(path)
    writer = threading.Thread(target=_atomic_write, args=(path, text), daemon=True)
    writer.start()
    writer.join(timeout=30)
    assert not writer.is_alive(), "the write blocked on the FIFO"
    assert stat.S_ISREG(path.lstat().st_mode) and path.read_text() == text


def test_cli_out_files_are_kept_on_identical_reruns(inputs, tmp_path, capsys):
    bpas = {"bpas": list(json.loads(write_dense_fixtures(tmp_path / "f.json")
                                    .read_text()).values())}
    bpa_path = write(tmp_path / "bpas.json", json.dumps(bpas))
    out = tmp_path / "out"
    commands = (["weights", "--matrices", str(inputs["matrices.json"]),
                 "--priors", str(inputs["priors.csv"]), "--ri-table", str(inputs["ri.json"]),
                 "--out", str(out / "w.csv")],
                ["fuse", "--bpas", str(bpa_path), "--out", str(out / "fused.json")])
    for argv in commands:
        assert cli.run(argv) == 0
    first = file_ids(out)
    assert sorted(first) == ["fused.json", "w.csv"]
    for argv in commands:
        assert cli.run(argv) == 0
    capsys.readouterr()
    assert file_ids(out) == first


def test_chart_bytes_are_deterministic(inputs, tmp_path):
    run_example(inputs, chart=tmp_path / "a.svg")
    run_example(inputs, chart=tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_text_report_written(inputs, tmp_path):
    out = tmp_path / "out"
    run_example(inputs, out_dir=out, fmt="text")
    text = (out / "report.txt").read_text()
    for heading in ("Consistency", "Weighting", "Ratings", "Fusion", "Ranking"):
        assert heading in text
    assert "Average" in text


# --- bundled reference data ---------------------------------------------------

def test_reference_weights_fixture():
    ref = reference_weights()
    assert len(ref.ids) == 14
    assert math.fsum(ref.priors) == pytest.approx(2.7833, abs=1e-9)


def test_reference_ratings_fixture():
    ratings = reference_ratings()
    assert len(ratings) == 14
    assert ratings[7].indicator == "B8"
    assert ratings[7].rating.name == "H"


def test_reference_fusion_fixture():
    ref = reference_fusion()
    assert len(ref.windows) == 6
    assert ref.windows[0][0] == ("B1", "B2", "B3", "B4")
    total = math.fsum(list(ref.average.vector))
    assert total == 1.0


def test_example_input_text_unknown_name():
    with pytest.raises(KeyError):
        example_input_text("bogus.csv")


# --- command line --------------------------------------------------------------

def cli_inputs(paths):
    return ["--scores", str(paths["scores.csv"]),
            "--matrices", str(paths["matrices.json"]),
            "--priors", str(paths["priors.csv"]),
            "--ri-table", str(paths["ri.json"])]


def test_cli_evaluate_success(inputs, tmp_path, capsys):
    code = cli.run(["evaluate", *cli_inputs(inputs),
                    "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "top=B8" in captured.out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_evaluate_missing_file_exits_3(inputs, capsys):
    args = cli_inputs(inputs)
    args[1] = "/nonexistent/scores.csv"
    code = cli.run(["evaluate", *args])
    captured = capsys.readouterr()
    assert code == 3
    assert "ingest" in captured.err


def test_cli_evaluate_bad_flag_exits_1(inputs, capsys):
    code = cli.run(["evaluate", *cli_inputs(inputs), "--alpha", "2.0"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("flag, text", [
    ("--alpha", "0_8"), ("--alpha", "٠.٨"), ("--alpha", "abc"),
    ("--window", "٤"), ("--window", "4_0"), ("--window", "4.0"),
    ("--stride", "٢"), ("--stride", "1_0")])
def test_cli_numbers_follow_the_file_text_rule(inputs, capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        cli.run(["evaluate", *cli_inputs(inputs), flag, text])
    assert exc.value.code == 1
    kind = "float" if flag == "--alpha" else "int"
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid {kind} value: {text!r}\n")


@pytest.mark.parametrize("alpha", [" 0.8", "0.8 ", "8e-1", "1e-1", "+0.8"])
def test_cli_reads_the_number_text_that_float_and_int_read(inputs, capsys, alpha):
    assert cli.run(["evaluate", *cli_inputs(inputs), "--alpha", alpha,
                    "--window", " 4", "--stride", "+2"]) == 0
    assert "top=B8" in capsys.readouterr().out


def test_cli_evaluate_without_priors(inputs, tmp_path, capsys):
    args = cli_inputs(inputs)
    del args[4:6]  # --priors and its path
    assert cli.run(["evaluate", *args, "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "rank by weight: top=B8 bottom=B10" in out
    assert "adjusted" not in out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(manifest["rankings"]) == ["fused_belief", "weight"]
    assert "priors" not in manifest["inputs"]


def test_cli_usage_error_exits_1(capsys):
    # argparse-level failures leave through SystemExit, remapped from 2 to 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["evaluate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_consistency_gate_exit_code(inputs, tmp_path, capsys):
    rng = np.random.default_rng(33)
    doc = {"indicators": list(CATALOG_IDS),
           "experts": [{"id": "e1",
                        "matrix": random_reciprocal(rng, 14).values.tolist()}]}
    bad = write(tmp_path / "wild.json", json.dumps(doc))
    code = cli.run(["consistency", "--matrices", str(bad),
                    "--ri-table", str(inputs["ri.json"])])
    captured = capsys.readouterr()
    assert code == 2
    assert '"acceptable": false' in captured.out


def test_cli_consistency_without_ri_for_order_14_exits_1(tmp_path, capsys):
    # the built-in random-index table stops at order 10
    rng = np.random.default_rng(33)
    doc = {"indicators": list(CATALOG_IDS),
           "experts": [{"id": "e1",
                        "matrix": random_reciprocal(rng, 14).values.tolist()}]}
    bad = write(tmp_path / "wild.json", json.dumps(doc))
    assert cli.run(["consistency", "--matrices", str(bad)]) == 1
    capsys.readouterr()


def test_cli_evaluate_inconsistent_exits_2(inputs, tmp_path, capsys):
    rng = np.random.default_rng(33)
    doc = {"indicators": list(CATALOG_IDS),
           "experts": [{"id": "e1",
                        "matrix": random_reciprocal(rng, 14).values.tolist()}]}
    bad = write(tmp_path / "wild.json", json.dumps(doc))
    args = cli_inputs(inputs)
    args[3] = str(bad)
    code = cli.run(["evaluate", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert "--force" in captured.err


def test_cli_weights_subcommand(inputs, capsys):
    code = cli.run(["weights", "--matrices", str(inputs["matrices.json"]),
                    "--priors", str(inputs["priors.csv"]), "--ri-table", str(inputs["ri.json"])])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("indicator,E,d,W,lambda,W_adj")


def test_consistency_and_weights_print_what_evaluate_writes(inputs, tmp_path, capsys):
    # both subcommands run evaluate's own first stages, so they print the
    # consistency section of its manifest and its entropy_table.csv
    out = tmp_path / "out"
    assert cli.run(["evaluate", *cli_inputs(inputs), "--format", "csv",
                    "--out-dir", str(out)]) == 0
    capsys.readouterr()
    matrices, ri = ["--matrices", str(inputs["matrices.json"])], ["--ri-table", str(inputs["ri.json"])]
    assert cli.run(["weights", *matrices, "--priors", str(inputs["priors.csv"]), *ri]) == 0
    assert capsys.readouterr().out.encode() == (out / "entropy_table.csv").read_bytes()
    assert cli.run(["consistency", *matrices, *ri]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert capsys.readouterr().out == json_text(manifest["consistency"])


def subcommand_runs(tmp_path, capsys, matrices, *options):
    """(exit code, stderr) of evaluate, consistency and weights on ``matrices``,
    evaluate with a scores file that covers its ids."""
    ids = json.loads(matrices.read_text())["indicators"]
    scores = write(tmp_path / "scores.csv",
                   "expert_id,indicator,score\n" + "".join(f"e1,{i},5\n" for i in ids))
    runs = []
    for argv in (["evaluate", "--scores", str(scores)], ["consistency"], ["weights"]):
        code = cli.run([*argv, "--matrices", str(matrices), *options])
        runs.append((code, capsys.readouterr().err))
    return runs


def test_gate_rejects_a_cr_equal_to_the_threshold(inputs, tmp_path, capsys):
    # the gate passes CR < 0.1 (Saaty 1980): an RI override for order 14 that
    # puts the example's CR exactly on the threshold fails it in all three
    ci = run_example(inputs).consistency_report.ci
    ri = ci / CR_THRESHOLD
    for _ in range(100):
        if ci / ri == CR_THRESHOLD:
            break
        ri = math.nextafter(ri, math.inf if ci / ri > CR_THRESHOLD else 0.0)
    ri_path = write(tmp_path / "ri.json", json.dumps({"14": ri}))
    report = run_example(inputs, ri_table=ri_path, force=True).consistency_report
    assert report.cr == CR_THRESHOLD and not report.acceptable
    runs = subcommand_runs(tmp_path, capsys, inputs["matrices.json"], "--ri-table", str(ri_path))
    assert [code for code, _ in runs] == [2, 2, 2]


def test_a_three_cycle_fails_the_gate_unless_weights_is_forced(tmp_path, capsys):
    doc = {"indicators": ["A", "B", "C"],
           "experts": [{"id": "e1", "matrix": [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]}]}
    matrices = write(tmp_path / "cycle.json", json.dumps(doc))
    (evaluate, _), (consistency, _), (weights, err) = subcommand_runs(tmp_path, capsys, matrices)
    assert (evaluate, consistency, weights) == (2, 2, 2)
    assert err.startswith("evicrit: error [stage: consistency]: aggregated matrix fails "
                          "the consistency gate: CR = 4.0868 >= 0.1")
    assert cli.run(["weights", "--matrices", str(matrices), "--force"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [repr(1 / 3)] * 3


def test_a_stalled_power_iteration_is_one_verdict_in_every_subcommand(tmp_path, capsys):
    # a valid matrix whose eigenvalue moduli (1001.001 and 999.4999 twice)
    # need about 18,000 power steps, past the cap of 10,000; the certified
    # bracket of ROADMAP item 6 will turn this verdict into exit 2 (CR about 574)
    doc = {"indicators": ["A", "B", "C"],
           "experts": [{"id": "e1", "matrix": [[1, 10, 1e-4], [0.1, 1, 1e4], [1e4, 1e-4, 1]]}]}
    runs = subcommand_runs(tmp_path, capsys, write(tmp_path / "m.json", json.dumps(doc)))
    assert runs == [runs[0]] * 3
    code, err = runs[0]
    assert code == 1
    assert err.startswith("evicrit: error [stage: consistency]: power iteration did not "
                          "converge in 10000 iterations")


def test_subcommand_errors_name_their_stage(inputs, tmp_path, capsys):
    # consistency reads the RI table in ingest, before the aggregate
    bad_ri = write(tmp_path / "ri.json", '{"014": 1.57}')
    assert cli.run(["consistency", "--matrices", str(inputs["matrices.json"]),
                    "--ri-table", str(bad_ri)]) == 1
    assert capsys.readouterr().err == (f"evicrit: error [stage: ingest]: {bad_ri}: "
                                       f"bad RI entry '014': 1.57\n")
    # above order 10 weights needs an RI override, as evaluate does
    assert cli.run(["weights", "--matrices", str(inputs["matrices.json"])]) == 1
    assert capsys.readouterr().err == ("evicrit: error [stage: consistency]: "
                                       "no random index for order 14\n")


def test_a_run_that_stops_before_fuzzify_reads_no_scores(inputs, tmp_path):
    full = run_example(inputs)
    for scores in (None, tmp_path / "no-scores.csv"):
        config = PipelineConfig(scores=scores, matrices=inputs["matrices.json"],
                                priors=inputs["priors.csv"], ri_table=inputs["ri.json"])
        assert run_pipeline(config, _last_stage="consistency") == full.consistency_report
        assert run_pipeline(config, _last_stage="weighting") == full.entropy_table
    # a run that fuzzifies refuses a config without scores before any input is read
    with pytest.raises(errors.ConfigError, match="scores must be a path, got None"):
        run_pipeline(PipelineConfig(scores=None, matrices=tmp_path / "no-matrices.json"))


def test_cli_fuse_subcommand(tmp_path, capsys):
    doc = {"bpas": [
        {"frame": ["VL", "L", "M", "H", "VH"],
         "masses": [{"subset": ["H"], "mass": 0.6},
                    {"subset": ["VL", "L", "M", "H", "VH"], "mass": 0.4}]},
        {"frame": ["VL", "L", "M", "H", "VH"],
         "masses": [{"subset": ["H"], "mass": 0.6},
                    {"subset": ["VL", "L", "M", "H", "VH"], "mass": 0.4}]},
    ]}
    p = write(tmp_path / "bpas.json", json.dumps(doc))
    code = cli.run(["fuse", "--bpas", str(p)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["conflict_k"] == 0.0
    assert payload["betp"]["H"] == pytest.approx(0.872, abs=1e-12)


def test_cli_fuse_malformed_bpa_exits_1(tmp_path, capsys):
    p = write(tmp_path / "bpas.json", json.dumps({"bpas": [{"frame": 5, "masses": []}]}))
    code = cli.run(["fuse", "--bpas", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert "bpas[0]" in captured.err and '"frame"' in captured.err


def test_cli_fuse_focal_set_outside_frame_exits_1(tmp_path, capsys):
    doc = {"bpas": [{"frame": ["H"], "masses": [{"subset": ["H", "VH"], "mass": 1.0}]}]}
    code = cli.run(["fuse", "--bpas", str(write(tmp_path / "bpas.json", json.dumps(doc)))])
    captured = capsys.readouterr()
    assert code == 1
    assert "bpas[0]: focal set {H,VH} outside frame {H}" in captured.err


def test_cli_fuse_mixed_frames_match_the_five_grade_frame(tmp_path, capsys):
    cells = [(["L", "M", "H"], [(["M"], 0.6), (["L", "M"], 0.4)]),
             (["M", "H", "VH"], [(["H"], 0.7), (["M", "H"], 0.3)]),
             ([l.name for l in FRAME], [(["M"], 0.5), (["M", "H"], 0.3),
                                        ([l.name for l in FRAME], 0.2)])]
    outputs = []
    for name, frames in (("mixed", [frame for frame, _ in cells]),
                         ("five", [[l.name for l in FRAME]] * len(cells))):
        doc = {"bpas": [{"frame": frame,
                         "masses": [{"subset": s, "mass": m} for s, m in masses]}
                        for frame, (_, masses) in zip(frames, cells)]}
        code = cli.run(["fuse", "--bpas", str(write(tmp_path / f"{name}.json", json.dumps(doc)))])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0
    assert "evicrit" in capsys.readouterr().out


def test_the_installed_version_is_the_package_version():
    # the build reads the version from evicrit._version, so the two agree
    try:
        installed = importlib.metadata.version("evicrit")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no evicrit distribution is installed")
    assert installed == evicrit.__version__
