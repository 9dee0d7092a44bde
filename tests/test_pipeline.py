"""Ingestion, orchestration, emission, and the command line."""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from evicrit import cli, errors
from evicrit.core import CATALOG_IDS, FRAME, Subset
from evicrit.datasets import (
    example_input_text,
    export_example_inputs,
    reference_fusion,
    reference_ratings,
    reference_weights,
)
from evicrit.entropy import EntropyTable
from evicrit.report import _atomic_write
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
    for bad in ('{"14": 0}', '{"3": 0.0}', '{"14": Infinity}'):
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
    b = run_example(inputs).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert a == b


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
    ("force", "no"), ("force", 1)])
def test_run_pipeline_rejects_wrongly_typed_config(tmp_path, field, value):
    # checked before any input is read: the paths need not exist
    config = PipelineConfig(scores=tmp_path / "no-scores.csv",
                            matrices=tmp_path / "no-matrices.json", **{field: value})
    with pytest.raises(errors.ConfigError, match=field):
        run_pipeline(config)


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


def test_dense_fixture_fusion_is_pinned(inputs, tmp_path):
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
    fixtures = write(tmp_path / "dense.json", json.dumps(doc))
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


def test_failed_report_write_leaves_no_manifest(inputs, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.txt").mkdir(parents=True)
    assert cli.run(["evaluate", *cli_inputs(inputs), "--out-dir", str(out)]) == 3
    assert "report.txt" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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
    total = math.fsum(ref.average.vector.tolist())
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
                    "--priors", str(inputs["priors.csv"])])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("indicator,E,d,W,lambda,W_adj")


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
