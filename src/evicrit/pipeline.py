"""Pipeline orchestration: file ingestion, the three processing stages, and
the run manifest.

The pipeline is deterministic end to end: identical input bytes and
configuration produce an identical manifest except for the timing fields.
Every error raised out of a stage carries the stage name on its ``stage``
attribute.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .ahp import (
    CI_DENOMINATOR_MODES,
    CR_THRESHOLD,
    DEFAULT_RI,
    ConsistencyReport,
    PairwiseMatrix,
    aggregate_geometric,
    consistency,
)
from .core import Bpa, bpa_from_dict, bpa_to_dict, json_number
from .entropy import DecisionMatrix, EntropyTable, build_table
from .errors import (
    ConfigError,
    DegeneratePriors,
    EvicritError,
    InconsistentMatrix,
    InvalidMatrix,
    IoError,
    MissingIndicator,
    OrderMismatch,
    ParseError,
    UnknownIndicator,
)
from .evidence import CombinationResult, average_bpas, murphy_combine, pignistic, rank
from .fuzzy import (
    OVERLAP_ADJACENT,
    OVERLAP_MODES,
    check_alpha,
    check_score,
    membership,
    rating_label,
    to_bpa,
)

REPORT_FORMATS = ("text", "csv", "json")


# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything an `evaluate` run needs; immutable once built."""

    scores: str | Path
    matrices: str | Path
    priors: str | Path | None = None
    bpa_fixtures: str | Path | None = None
    alpha: float = 1.0
    overlap_mode: str = OVERLAP_ADJACENT
    ci_denominator: str = "paper"
    ri_table: str | Path | None = None
    window: int = 4
    stride: int = 2
    force: bool = False
    out_dir: str | Path | None = None
    fmt: str = "text"
    chart: str | Path | None = None

    def validated(self) -> "PipelineConfig":
        try:
            check_alpha(json_number(self.alpha))
        except TypeError:
            raise ConfigError(f"alpha must be a number, got {self.alpha!r}") from None
        except EvicritError as e:
            raise ConfigError(f"alpha: {e}") from None
        if self.overlap_mode not in OVERLAP_MODES:
            raise ConfigError(f"overlap_mode must be one of {OVERLAP_MODES}, "
                              f"got {self.overlap_mode!r}")
        if self.ci_denominator not in CI_DENOMINATOR_MODES:
            raise ConfigError(f"ci_denominator must be one of "
                              f"{CI_DENOMINATOR_MODES}, got {self.ci_denominator!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ConfigError(f"format must be one of {REPORT_FORMATS}, "
                              f"got {self.fmt!r}")
        for name in ("window", "stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if not isinstance(self.force, bool):
            raise ConfigError(f"force must be true or false, got {self.force!r}")
        return self


def windows(ids: Sequence[str], window: int, stride: int) -> tuple[tuple[str, ...], ...]:
    """Sliding index windows over ``ids``: starts 0, stride, 2*stride, ...

    The last window is the last one that fits entirely; a window wider than
    the id list is a configuration error.
    """
    n = len(ids)
    if window < 1 or window > n:
        raise ConfigError(f"window must be in 1..{n}, got {window}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    return tuple(tuple(ids[start:start + window])
                 for start in range(0, n - window + 1, stride))


# --- ingestion ----------------------------------------------------------------

def _read_text(path: str | Path) -> str:
    """The file's UTF-8 text without a leading BOM, newlines translated to "\\n"."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start}: not UTF-8 ({e.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ParseError(f"repeated key {repeated!r}")
    return doc


def _read_json(path: str | Path):
    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from None


def _csv_rows(path: str | Path, header: list[str], ids: Sequence[str], what: str,
              parse=float):
    """Yield (line, row, value) for each nonblank row after ``header``.

    Each row has the header's width, an id from ``ids`` in its next-to-last
    column and a number (the row's ``what``) in its last, which ``parse``
    turns into ``value``; ``line`` is the line on which the row ends.  The
    number must be ASCII without ``_``, which ``float`` alone does not ask.
    """
    known = set(ids)
    width = len(header)
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        first = next(reader, None)
        if first != header:
            raise ParseError(f"{path}: expected header {','.join(header)}, "
                             f"got {first}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                raise ParseError(f"{path}:{line}: expected {width} columns, "
                                 f"got {len(row)}")
            if row[-2] not in known:
                raise UnknownIndicator(f"{path}:{line}: unknown indicator "
                                       f"{row[-2]!r}")
            try:
                if "_" in row[-1] or not row[-1].isascii():
                    raise ValueError(row[-1])
                value = parse(row[-1])
            except ValueError:
                raise ParseError(f"{path}:{line}: {what} {row[-1]!r} is not "
                                 f"a number") from None
            except EvicritError as e:
                raise type(e)(f"{path}:{line}: {e}") from None
            yield line, row, value
    except csv.Error as e:
        raise ParseError(f"{path}:{reader.line_num}: {e}") from None


def _check_covered(path: str | Path, ids: Sequence[str], found, what: str):
    missing = [i for i in ids if i not in found]
    if missing:
        raise MissingIndicator(f"{path}: no {what} for {', '.join(missing)}")


def ingest_scores(path: str | Path, ids: Sequence[str]) -> dict[str, float]:
    """Read expert scores and average them per indicator, in ``ids`` order.

    The file must score every id in ``ids`` at least once, nothing outside
    ``ids``, and each (expert, indicator) pair at most once.
    """
    first_line: dict[tuple[str, str], int] = {}
    collected: dict[str, list[float]] = {}
    for line, (expert_id, indicator_id, _), value in _csv_rows(
            path, ["expert_id", "indicator", "score"], ids, "score", check_score):
        seen_at = first_line.setdefault((expert_id, indicator_id), line)
        if seen_at != line:
            raise ParseError(f"{path}:{line}: expert {expert_id!r} already "
                             f"scored {indicator_id} at line {seen_at}")
        collected.setdefault(indicator_id, []).append(value)
    _check_covered(path, ids, collected, "scores")
    return {i: math.fsum(collected[i]) / len(collected[i]) for i in ids}


def ingest_matrices(path: str | Path) -> tuple[tuple[str, ...],
                                               list[tuple[str, PairwiseMatrix]]]:
    """Read expert pairwise matrices: (indicator ids, [(expert id, matrix)])."""
    doc = _read_json(path)
    try:
        ids = doc["indicators"]
        experts = doc["experts"]
    except (KeyError, TypeError):
        raise ParseError(f'{path}: needs "indicators" and "experts" keys') from None
    if (not isinstance(ids, list) or not ids
            or not all(isinstance(i, str) for i in ids)):
        raise ParseError(f'{path}: "indicators" must be a nonempty list of ids')
    if len(set(ids)) != len(ids):
        raise ParseError(f'{path}: duplicate indicator ids')
    if not isinstance(experts, list) or not experts:
        raise ParseError(f'{path}: "experts" must be a nonempty list')
    n = len(ids)
    out: list[tuple[str, PairwiseMatrix]] = []
    expert_ids: set[str] = set()
    for pos, entry in enumerate(experts):
        try:
            expert_id = entry["id"]
            rows = entry["matrix"]
        except (KeyError, TypeError):
            raise ParseError(f'{path}: experts[{pos}] needs "id" and "matrix"') from None
        if not isinstance(expert_id, str):
            raise ParseError(f'{path}: experts[{pos}]: "id" must be a string')
        if expert_id in expert_ids:
            raise ParseError(f"{path}: experts[{pos}]: duplicate expert id "
                             f"{expert_id!r}")
        expert_ids.add(expert_id)
        try:
            values = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{path}: expert {expert_id!r}: matrix "
                             f"is not rectangular numeric") from None
        if values.shape != (n, n):
            raise OrderMismatch(f"{path}: expert {expert_id!r}: matrix shape "
                                f"{values.shape} does not match {n} indicators")
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
            i, j = next((i, j) for i, row in enumerate(rows)
                        for j, cell in enumerate(row) if type(cell) not in (int, float))
            raise ParseError(f"{path}: expert {expert_id!r}: matrix cell "
                             f"({i + 1},{j + 1}) is {rows[i][j]!r}, not a number")
        try:
            out.append((expert_id, PairwiseMatrix(values)))
        except InvalidMatrix as e:
            raise InvalidMatrix(f"{path}: expert {expert_id!r}: {e}") from None
    return tuple(ids), out


def _check_prior(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise DegeneratePriors(f"prior {value!r} is not a nonnegative finite real")
    return value


def ingest_priors(path: str | Path, ids: Sequence[str]) -> dict[str, float]:
    """Read per-indicator prior weights from `indicator,lambda` CSV.

    The file must give exactly one nonnegative finite prior for each id in
    ``ids`` and none for any other id.
    """
    priors: dict[str, float] = {}
    for line, (indicator_id, _), value in _csv_rows(
            path, ["indicator", "lambda"], ids, "prior", _check_prior):
        if indicator_id in priors:
            raise ParseError(f"{path}:{line}: duplicate prior for {indicator_id}")
        priors[indicator_id] = value
    _check_covered(path, ids, priors, "prior")
    return {i: priors[i] for i in ids}


def load_ri_table(path: str | Path) -> dict[int, float]:
    """The built-in random indices updated from a JSON object order -> RI.

    Orders 1 and 2 may have RI 0; any higher order needs a positive finite
    RI, because CR = CI / RI.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: RI table must be a JSON object")
    table = dict(DEFAULT_RI)
    for key, value in doc.items():
        try:
            if not (key.isascii() and key.isdigit()):
                raise ValueError(f"order {key!r} is not a decimal integer")
            order = int(key)
            ri = json_number(value)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{path}: bad RI entry {key!r}: {value!r}") from None
        if order < 1 or not (0.0 < ri < math.inf or (ri == 0.0 and order <= 2)):
            raise ParseError(f"{path}: bad RI entry {key!r}: {value!r}")
        table[order] = ri
    return table


def _bpa_cell(path: str | Path, where: str, cell) -> Bpa:
    """``bpa_from_dict(cell)``, its errors located at ``where`` in ``path``."""
    try:
        return bpa_from_dict(cell)
    except EvicritError as e:
        raise type(e)(f"{path}: {where}: {e}") from None


def load_bpa_fixtures(path: str | Path, ids: Sequence[str]) -> dict[str, Bpa]:
    """Read per-indicator mass functions: JSON object indicator -> BPA.

    The object must have a key for each id in ``ids`` and no other key.
    """
    known = set(ids)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: BPA fixtures must be a JSON object keyed "
                         f"by indicator id")
    out: dict[str, Bpa] = {}
    for indicator_id, cell in doc.items():
        if indicator_id not in known:
            raise UnknownIndicator(f"{path}: unknown indicator {indicator_id!r}")
        out[indicator_id] = _bpa_cell(path, indicator_id, cell)
    _check_covered(path, ids, out, "assignment")
    return {i: out[i] for i in ids}


def load_bpa_list(path: str | Path) -> list[Bpa]:
    """Read an ordered list of mass functions ({"bpas": [...]} or a bare list)."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "bpas" in doc:
        doc = doc["bpas"]
    if not isinstance(doc, list) or not doc:
        raise ParseError(f"{path}: expected a nonempty list of BPA objects")
    return [_bpa_cell(path, f"bpas[{pos}]", cell) for pos, cell in enumerate(doc)]


def _input_record(path: str | Path) -> dict[str, str]:
    """The manifest entry of an input file: its path and the SHA-256 of its bytes."""
    try:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    return {"path": str(path), "sha256": digest}


# --- manifest -----------------------------------------------------------------

def fused_masses(b: Bpa) -> dict:
    """JSON form of a fused mass function: its focal masses and BetP."""
    return {"masses": bpa_to_dict(b)["masses"],
            "betp": {l.name: p for l, p in pignistic(b).items()}}


@dataclass
class RunManifest:
    """Everything one pipeline run computed, traceable to input digests."""

    version: str
    inputs: dict[str, dict]
    config: dict
    consistency_report: ConsistencyReport
    entropy_table: EntropyTable
    ratings: tuple[tuple[str, float, str], ...]
    window_ids: tuple[tuple[str, ...], ...]
    window_results: tuple[CombinationResult, ...]
    overall: Bpa
    rankings: dict[str, object]
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "inputs": self.inputs,
            "config": self.config,
            "consistency": self.consistency_report.to_dict(),
            "entropy_table": self.entropy_table.rows(),
            "ratings": [{"indicator": i, "score": s, "label": l}
                        for i, s, l in self.ratings],
            "fusion": {
                "windows": [{"indicators": list(ids),
                             "conflict_k": result.conflict_k,
                             **fused_masses(result.bpa)}
                            for ids, result in zip(self.window_ids,
                                                   self.window_results)],
                "average": fused_masses(self.overall),
            },
            "rankings": {key: report.to_dict()
                         for key, report in self.rankings.items()},
            "timings": self.timings,
        }


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    started = time.perf_counter()
    try:
        yield
    except EvicritError as e:
        if e.stage is None:
            e.stage = name
        raise
    finally:
        timings[name] = time.perf_counter() - started


# --- the run -------------------------------------------------------------------

def run_pipeline(config: PipelineConfig) -> RunManifest:
    """Execute ingestion, weighting, fuzzification, fusion, and ranking.

    Aborts with InconsistentMatrix when the aggregated judgments fail the
    consistency gate, unless ``config.force`` is set.  When ``out_dir`` is
    configured, the manifest and report files are written as well.
    """
    from . import report as report_mod

    config = config.validated()
    timings: dict[str, float] = {}

    inputs: dict[str, dict] = {}
    with _stage("ingest", timings):
        # the matrices file names the run's indicators; every other input
        # must cover exactly those ids
        ids, experts = ingest_matrices(config.matrices)
        scores = ingest_scores(config.scores, ids)
        inputs["scores"] = _input_record(config.scores)
        inputs["matrices"] = _input_record(config.matrices)
        priors = None
        if config.priors is not None:
            priors = ingest_priors(config.priors, ids)
            inputs["priors"] = _input_record(config.priors)
        ri_table = None
        if config.ri_table is not None:
            ri_table = load_ri_table(config.ri_table)
            inputs["ri_table"] = _input_record(config.ri_table)
        fixtures = None
        if config.bpa_fixtures is not None:
            fixtures = load_bpa_fixtures(config.bpa_fixtures, ids)
            inputs["bpa_fixtures"] = _input_record(config.bpa_fixtures)

    with _stage("aggregate", timings):
        aggregated = aggregate_geometric([m for _, m in experts])

    with _stage("consistency", timings):
        report = consistency(aggregated, ri_table=ri_table,
                             denominator_mode=config.ci_denominator)
        if not report.acceptable and not config.force:
            raise InconsistentMatrix(
                f"aggregated matrix fails the consistency gate: CR = "
                f"{report.cr:.4f} >= {CR_THRESHOLD} (lambda_max = "
                f"{report.lambda_max:.6f}); rerun with --force to proceed",
                report=report)

    with _stage("weighting", timings):
        decision = DecisionMatrix(aggregated.values, ids)
        table = build_table(decision, priors=priors)

    with _stage("fuzzify", timings):
        ratings = []
        bpas: dict[str, Bpa] = {}
        for indicator_id in ids:
            v = membership(scores[indicator_id])
            ratings.append((indicator_id, scores[indicator_id],
                            rating_label(v).name))
            if fixtures is not None:
                bpas[indicator_id] = fixtures[indicator_id]
            else:
                bpas[indicator_id] = to_bpa(v, alpha=config.alpha,
                                            overlap_mode=config.overlap_mode)

    with _stage("fuse", timings):
        window_ids = windows(ids, config.window, config.stride)
        window_results = tuple(
            murphy_combine([bpas[i] for i in group]) for group in window_ids)
        overall = average_bpas([r.bpa for r in window_results])

    with _stage("rank", timings):
        rankings = {
            "weight": rank(dict(zip(table.ids, table.weights)),
                           note="entropy weights"),
        }
        if table.adjusted is not None:
            rankings["adjusted_weight"] = rank(
                dict(zip(table.ids, table.adjusted)),
                note="entropy weights adjusted by priors")
        betp = pignistic(overall)
        rankings["fused_belief"] = rank(
            {l.name: p for l, p in betp.items()},
            note="pignistic probability of the fused overall assignment")

    manifest = RunManifest(
        version=__version__,
        inputs=inputs,
        config={
            "alpha": config.alpha,
            "overlap_mode": config.overlap_mode,
            "ci_denominator": config.ci_denominator,
            "window": config.window,
            "stride": config.stride,
            "force": config.force,
            "score_aggregation": "mean",
            "bpa_source": "fixtures" if config.bpa_fixtures is not None else "scores",
        },
        consistency_report=report,
        entropy_table=table,
        ratings=tuple(ratings),
        window_ids=window_ids,
        window_results=window_results,
        overall=overall,
        rankings=rankings,
        timings=timings,
    )

    with _stage("emit", timings):
        # the manifest goes last: a failed report write leaves no new manifest
        if config.out_dir is not None:
            report_mod.emit_report(manifest, config.fmt, config.out_dir)
        if config.chart is not None:
            report_mod.emit_chart(manifest, config.chart)
        if config.out_dir is not None:
            report_mod.write_manifest(manifest, Path(config.out_dir) / "manifest.json")

    return manifest
