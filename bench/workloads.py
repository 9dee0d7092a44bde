"""The benchmark's workloads: inputs from a seed, the timed op, output checks.

Each workload has five steps:

* ``prepare(seed, work)`` writes the op's input files into ``work`` and
  returns their paths; the same seed gives the same bytes;
* ``load(work)`` turns those files into the op's argument (untimed);
* ``op(state)`` is the timed call into the public API.  It looks every
  function up as a module attribute at call time, so a traced run can
  rebind those attributes;
* ``fingerprint(output, state)`` returns the bytes the op produced: the
  manifest without its ``timings`` and every emitted file.  Every op of a
  run must reproduce the first op's fingerprint;
* ``check_run(output, state)`` runs the slower semantic and oracle checks
  once per run on the first op's output and returns the problems found.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from evicrit import ahp, core, datasets, entropy, evidence, pipeline

import generate


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _manifest_doc(manifest) -> dict:
    doc = manifest.to_dict()
    doc.pop("timings", None)
    return doc


class _PipelineWorkload:
    """A workload whose op is one ``run_pipeline`` call on files in ``work``."""

    name = ""
    why = ""
    #: PipelineConfig keyword arguments other than the input paths
    options: dict = {}

    def load(self, work: Path):
        config = {key: work / name for key, name in (
            ("scores", "scores.csv"), ("matrices", "matrices.json"),
            ("priors", "priors.csv"), ("ri_table", "ri.json"),
            ("bpa_fixtures", "fixtures.json")) if (work / name).exists()}
        options = dict(self.options)
        if "out_dir" in options:
            options["out_dir"] = work / options["out_dir"]
        if "chart" in options:
            options["chart"] = work / options["chart"]
        return pipeline.PipelineConfig(**config, **options)

    def op(self, config):
        return pipeline.run_pipeline(config)

    def fingerprint(self, manifest, config) -> bytes:
        parts = [json.dumps(_manifest_doc(manifest), indent=2).encode()]
        if config.out_dir is not None:
            for path in sorted(Path(config.out_dir).iterdir()):
                data = path.read_bytes()
                if path.name == "manifest.json":
                    written = json.loads(data)
                    written.pop("timings", None)
                    data = json.dumps(written, indent=2).encode()
                parts.append(path.name.encode() + b"\n" + data)
        return b"\0".join(parts)

    def check_run(self, manifest, config) -> list[str]:
        problems = []
        if config.out_dir is not None:
            written = json.loads((Path(config.out_dir) / "manifest.json").read_text())
            written.pop("timings", None)
            if written != json.loads(json.dumps(_manifest_doc(manifest))):
                problems.append("manifest.json on disk differs from the returned manifest")
        return problems


# The reference evaluation users run: report emission is about half the op
# and evidence about a fifth, so report and stage-overhead changes show here.
class Example(_PipelineWorkload):
    name = "example"
    why = ("bundled reference evaluation with text report and SVG chart; "
           "report emission and evidence fusion show here")
    options = {"alpha": 0.8, "out_dir": "out", "fmt": "text",
               "chart": "out/weights.svg"}

    def prepare(self, seed, work):
        return datasets.export_example_inputs(work)

    def check_run(self, manifest, config):
        problems = super().check_run(manifest, config)
        cr = manifest.consistency_report.cr
        if f"{cr:.4f}" != "0.0792":
            problems.append(f"CR = {cr!r}, want 0.0792 at 4 places")
        want = (("weight", "top", "B8"), ("weight", "bottom", "B10"),
                ("adjusted_weight", "bottom", "B6"), ("fused_belief", "top", "H"))
        for key, end, expected in want:
            got = getattr(manifest.rankings[key], end)
            if got != expected:
                problems.append(f"{end} by {key} is {got}, want {expected}")
        return problems


# A large expert panel and no out_dir: parsing, PairwiseMatrix validation,
# the digest re-reads and aggregate_geometric dominate, fusion and emission
# are nearly absent; the bypass case for evidence and report changes.
class ExpertPanel(_PipelineWorkload):
    name = "expert-panel"
    why = ("256 experts' 14x14 matrices and scores, no out_dir: ingest and "
           "aggregation dominate; bypasses report and most evidence work")
    experts = 256
    options = {"alpha": 0.8}

    def prepare(self, seed, work):
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 1])
        ids = generate.CATALOG_IDS
        panel = generate.noisy_reciprocal_panel(rng, len(ids), self.experts, 0.4)
        scores = generate.panel_scores(rng, self.experts, ids)
        return {
            "matrices.json": _write(work / "matrices.json",
                                    generate.panel_matrices_json(panel, ids)),
            "scores.csv": _write(work / "scores.csv", generate.scores_csv(scores, ids)),
            "priors.csv": _write(work / "priors.csv", generate.priors_csv(rng, ids)),
            "ri.json": _write(work / "ri.json",
                              json.dumps({str(len(ids)): generate.RI_ORDER_14})),
        }

    def check_run(self, manifest, config):
        problems = super().check_run(manifest, config)
        report = manifest.consistency_report
        if not 0.0 < report.cr < 0.1:
            problems.append(f"panel CR = {report.cr!r}, want 0 < CR < 0.1")
        collected: dict[str, list[float]] = {}
        for line in Path(config.scores).read_text().splitlines()[1:]:
            _, indicator_id, score = line.split(",")
            collected.setdefault(indicator_id, []).append(float(score))
        for indicator_id, score, _ in manifest.ratings:
            want = math.fsum(collected[indicator_id]) / len(collected[indicator_id])
            if score != want:
                problems.append(f"mean score of {indicator_id} is {score!r}, want {want!r}")
        return problems


# Dense seeded masses (20-31 focal sets each) replace to_bpa: 18 Dempster
# steps over ~17k focal-set pairs put ~3/4 of the op in evidence, and the
# fixture loader and the CSV report path run only here.
class DenseEvidence(_PipelineWorkload):
    name = "dense-evidence"
    why = ("example matrices with seeded dense BPA fixtures and CSV report: "
           "Murphy/Dempster fusion dominates; fixture loader and CSV path")
    options = {"window": 4, "stride": 2, "out_dir": "out", "fmt": "csv"}

    def prepare(self, seed, work):
        paths = datasets.export_example_inputs(work)
        rng = np.random.default_rng([seed, 2])
        fixtures = {i: generate.dense_masses(rng) for i in generate.CATALOG_IDS}
        paths["fixtures.json"] = _write(work / "fixtures.json",
                                        generate.fixtures_json(fixtures))
        return paths

    def check_run(self, manifest, config):
        """Re-derive every window with the brute-force oracle over an fsum average."""
        problems = super().check_run(manifest, config)
        doc = json.loads(Path(config.bpa_fixtures).read_text())
        masses = {i: {core.Subset.from_names(e["subset"]): float(e["mass"])
                      for e in cell["masses"]} for i, cell in doc.items()}
        worst = 0.0
        for ids, result in zip(manifest.window_ids, manifest.window_results):
            focal = {s for i in ids for s in masses[i]}
            average = core.Bpa({s: math.fsum(masses[i].get(s, 0.0) for i in ids) / len(ids)
                                for s in focal})
            fused, k = average, 0.0
            for _ in range(len(ids) - 1):
                step = evidence.brute_force_combine(fused, average)
                fused, k = step.bpa, step.conflict_k
            gap = max(abs(fused.mass(s) - result.bpa.mass(s))
                      for s in core.subsets_of() if not s.is_empty())
            worst = max(worst, gap, abs(k - result.conflict_k))
        if worst > 1e-9:
            problems.append(f"window fusion is {worst:.3e} from the brute-force oracle")
        return problems


# The only workload whose matrix order grows: O(n^2) Python loops in ahp and
# the entropy kernels dominate, with no file I/O and no evidence work.
# run_pipeline accepts only the catalog ids, so the chain is called directly.
class WideMatrix:
    name = "wide-matrix"
    why = ("in-memory aggregate, consistency and entropy table at 200 "
           "indicators x 8 experts: ahp loops dominate, no I/O or evidence")
    order = 200
    experts = 8

    def prepare(self, seed: int, work: Path) -> dict[str, Path]:
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        panel = generate.noisy_reciprocal_panel(rng, self.order, self.experts, 0.2)
        np.save(work / "wide.npy", panel)
        return {"wide.npy": work / "wide.npy"}

    def load(self, work: Path):
        panel = np.load(work / "wide.npy")
        matrices = [ahp.PairwiseMatrix(m) for m in panel]
        ids = tuple(f"C{j + 1}" for j in range(panel.shape[1]))
        ri_table = {panel.shape[1]: generate.alonso_lamata_ri(panel.shape[1])}
        return matrices, ids, ri_table

    def op(self, state):
        matrices, ids, ri_table = state
        aggregated = ahp.aggregate_geometric(matrices)
        report = ahp.consistency(aggregated, ri_table=ri_table)
        table = entropy.build_table(entropy.DecisionMatrix(aggregated.values, ids))
        return aggregated, report, table

    def fingerprint(self, output, state) -> bytes:
        aggregated, report, table = output
        return b"\0".join((aggregated.values.tobytes(),
                           json.dumps(report.to_dict()).encode(),
                           table.to_csv().encode()))

    def check_run(self, output, state) -> list[str]:
        aggregated, report, table = output
        problems = []
        a = aggregated.values
        eig = float(np.max(np.linalg.eigvals(a).real))
        if abs(report.lambda_max - eig) > 1e-9 * eig:
            problems.append(f"lambda_max {report.lambda_max!r} vs eigvals {eig!r}")
        reciprocity = float(np.max(np.abs(a * a.T - 1.0)))
        if reciprocity > 1e-12:
            problems.append(f"aggregate reciprocity gap {reciprocity:.3e}")
        weight_sum = math.fsum(table.weights)
        if abs(weight_sum - 1.0) > 1e-12:
            problems.append(f"sum of W is {weight_sum!r}")
        return problems


WORKLOADS = {w.name: w for w in (Example(), ExpertPanel(), DenseEvidence(), WideMatrix())}
