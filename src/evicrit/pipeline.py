"""Pipeline orchestration: file ingestion, the eight stages of a run (ingest,
aggregate, consistency, weighting, fuzzify, fuse, rank, emit), and the run
manifest.

The pipeline is deterministic end to end: identical input bytes and
configuration produce byte-identical manifest files.
Every error raised out of a stage carries the stage name on its ``stage``
attribute.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import io
import json
import math
import os
import reprlib
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
    pairwise_matrices,
    valid_ri,
)
from .core import (
    JSON_NUMBER_TYPES,
    Bpa,
    bpa_from_dict,
    bpa_to_dict,
    count,
    number,
    number_text,
)
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
    check_score,
    membership,
    rating_label,
    to_bpa,
)

# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """The inputs and settings of a pipeline run; immutable once built.

    ``scores`` may be None for a run that stops before fuzzify, as the
    ``consistency`` and ``weights`` subcommands do; ``run_pipeline`` refuses
    None for a run that goes on to fuzzify."""

    scores: str | Path | None
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
        from .report import REPORT_FORMATS  # on first use: `import evicrit` skips report

        number(self.alpha, ConfigError, "alpha: discount factor", 1.0)
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
            value = count(getattr(self, name), ConfigError, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if not isinstance(self.force, bool):
            raise ConfigError(f"force must be true or false, got {self.force!r}")
        for name in ("scores", "matrices", "priors", "bpa_fixtures", "ri_table",
                     "out_dir", "chart"):
            value = getattr(self, name)
            if value is None and name != "matrices":  # run_pipeline needs scores to fuzzify
                continue
            if not isinstance(value, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path, got {value!r}")
        return self


def windows(ids: Sequence[str], window: int, stride: int) -> tuple[tuple[str, ...], ...]:
    """Sliding index windows over ``ids``: starts 0, stride, 2*stride, ...

    The last window is the last one that fits entirely; a window wider than
    the id list is a configuration error.
    """
    n = len(ids)
    window, stride = count(window, ConfigError, "window"), count(stride, ConfigError, "stride")
    if window < 1 or window > n:
        raise ConfigError(f"window must be in 1..{n}, got {window}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    return tuple(tuple(ids[start:start + window])
                 for start in range(0, n - window + 1, stride))


# --- ingestion ----------------------------------------------------------------

# Each file is read once.  A loader given a ``digests`` dict stores in it,
# under the path, the SHA-256 of the very bytes it parsed.

def _collector_paused(loader):
    """``loader`` run with the cyclic garbage collector paused.

    A parse builds thousands of lists, dicts and CSV rows, and under
    CPython's default thresholds every 700 of them start a collector pass
    that rescans the still-live document.  Such a pass finds nothing to
    collect: parsed JSON and CSV hold no reference cycles, nor do the
    loaders' results, so reference counting frees all of it.  The pause
    covers the whole loader, because the document lives until the loader
    returns.  A collector the caller disabled stays disabled.  This is also
    the one place that sets ``path`` on an EvicritError leaving a loader.
    """
    @functools.wraps(loader)
    def paused(path, *args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return loader(path, *args, **kwargs)
        except EvicritError as e:
            e.path = path
            raise
        except OSError as e:
            raise IoError(f"cannot read {path}: {e}") from e
        finally:
            if enabled:
                gc.enable()
    return paused


def _read_text(path: str | Path, digests: dict | None) -> str:
    """The file's UTF-8 text without a leading BOM; a CR stays a CR, so the
    CSV readers, which end a line at CR, LF or CRLF, keep one inside quotes.

    The SHA-256 of the bytes read goes into ``digests`` under ``path``
    unless ``digests`` is None.
    """
    try:
        data = Path(path).read_bytes()
    except ValueError as e:  # a NUL in the path, which no file name holds
        raise OSError(str(e)) from None
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: not UTF-8 ({e.reason})") from None
    return text.removeprefix("\ufeff")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ParseError(f"repeated key {reprlib.repr(repeated)}")
    return doc


def _read_json(path: str | Path, digests: dict | None):
    text = _read_text(path, digests)
    if "\r" in text:  # json counts lines by "\n" alone
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid JSON: {e}") from None


def _csv_columns(text: str, header: list[str], ids: Sequence[str], parse):
    """(indicator, value) pairs of a CSV file's nonblank rows after ``header``.

    Every rule of ``_csv_pairs`` runs once on whole columns.  None when any
    rule fails or the text is not CSV; the row walk then names the first
    faulty line.
    """
    try:
        rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    except csv.Error:
        return None
    body = [row for row in rows[1:] if row]
    if rows[:1] != [header] or not body or set(map(len, body)) != {len(header)}:
        return None
    *keys, indicators, numbers = zip(*body)
    joined = "".join(numbers)  # core.number_text's rule, on all cells at once
    if ("_" in joined or not joined.isascii() or set(indicators) != set(ids)
            or len(set(zip(*keys, indicators))) != len(body)):
        return None
    try:
        values = list(map(float, numbers))
        parse(min(values))
        parse(max(values))
    except (ValueError, EvicritError):
        return None
    # min and max can pass over a NaN, but it makes the sum NaN, which the
    # in-range values alone never do
    if math.isnan(sum(values)):
        return None
    return zip(indicators, values)


def _csv_pairs(text: str, header: list[str], ids: Sequence[str], what: str, parse):
    """(indicator, value) for each nonblank row after ``header`` of a CSV file.

    Each row has the header's width, an id from ``ids`` in its next-to-last
    column and in its last a number (the row's ``what``) by the text rule of
    ``core.number_text``, which ``parse`` checks as a float.  No row repeats
    its key (all columns but the number), and the rows cover ``ids``.  A
    file that breaks a rule on whole columns is walked row by row, to name
    the line on which the first faulty row ends.
    """
    pairs = _csv_columns(text, header, ids, parse)
    if pairs is not None:
        return pairs
    seen: dict[tuple[str, ...], int] = {}
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        first = next(reader, None)
        if first != header:
            raise ParseError(f"expected header {','.join(header)}, got {first}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                                 line=line)
            *key, cell = row
            if key[-1] not in ids:
                raise UnknownIndicator(f"unknown indicator {reprlib.repr(key[-1])}",
                                       line=line)
            try:
                parse(number_text(cell))
            except ValueError:
                raise ParseError(f"{what} {reprlib.repr(cell)} is not a number",
                                 line=line) from None
            except EvicritError as e:
                e.line = line
                raise
            seen_at = seen.setdefault(tuple(key), line)
            if seen_at != line:
                raise ParseError(f"expert {reprlib.repr(key[0])} already scored "
                                 f"{_clipped(key[1])} at line {seen_at}" if what == "score"
                                 else f"duplicate prior for {_clipped(key[0])}", line=line)
    except csv.Error as e:
        raise ParseError(str(e), line=reader.line_num) from None
    _check_covered(ids, {key[-1] for key in seen}, "scores" if what == "score" else "prior")
    return []  # no row and no id: the one valid file the column checks leave here


def _clipped(text: str) -> str:
    """``text`` for an echo without quotes, cut in the middle past 30
    characters as ``reprlib.repr`` cuts a string."""
    return text if len(text) <= 30 else f"{text[:13]}...{text[-14:]}"


def _check_covered(ids: Sequence[str], found, what: str):
    missing = [i for i in ids if i not in found]
    if missing:
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise MissingIndicator(f"no {what} for {', '.join(map(_clipped, missing[:5]))}{more}")


@_collector_paused
def ingest_scores(path: str | Path, ids: Sequence[str], *,
                  digests: dict | None = None) -> dict[str, float]:
    """Read expert scores and average them per indicator, in ``ids`` order.

    The file must score every id in ``ids`` at least once, nothing outside
    ``ids``, and each (expert, indicator) pair at most once.
    """
    collected: dict[str, list[float]] = {i: [] for i in ids}
    for indicator_id, value in _csv_pairs(
            _read_text(path, digests), ["expert_id", "indicator", "score"], ids,
            "score", check_score):
        collected[indicator_id].append(value)
    return {i: math.fsum(values) / len(values) for i, values in collected.items()}


@_collector_paused
def ingest_matrices(path: str | Path, *, digests: dict | None = None,
                    ) -> tuple[tuple[str, ...], list[tuple[str, PairwiseMatrix]]]:
    """Read expert pairwise matrices: (indicator ids, [(expert id, matrix)])."""
    doc = _read_json(path, digests)
    try:
        ids = doc["indicators"]
        experts = doc["experts"]
    except (KeyError, TypeError):
        raise ParseError('needs "indicators" and "experts" keys') from None
    if (not isinstance(ids, list) or not ids
            or not all(isinstance(i, str) for i in ids)):
        raise ParseError('"indicators" must be a nonempty list of ids')
    for indicator_id in ids:  # a lone surrogate from a JSON escape has no UTF-8
        try:
            indicator_id.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"indicator id {reprlib.repr(indicator_id)} is not encodable "
                             f"as UTF-8") from None
    if len(set(ids)) != len(ids):
        raise ParseError('duplicate indicator ids')
    if not isinstance(experts, list) or not experts:
        raise ParseError('"experts" must be a nonempty list')
    n = len(ids)
    k = len(experts)
    # all experts at once, their cells flattened once
    values = None
    try:
        expert_ids = [entry["id"] for entry in experts]
        grid = [entry["matrix"] for entry in experts]
        rows = list(chain.from_iterable(grid))
        if (set(map(len, grid)) == {n} and set(map(len, rows)) == {n}
                and all(isinstance(i, str) for i in expert_ids)
                and len(set(expert_ids)) == k
                and set(map(type, chain.from_iterable(rows))).issubset(JSON_NUMBER_TYPES)):
            values = np.fromiter(chain.from_iterable(rows), dtype=float,
                                 count=k * n * n).reshape(k, n, n)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    if values is None:  # an expert breaks a rule: the first fault in expert order
        seen: dict[str, list] = {}  # expert id -> matrix, of the experts walked
        try:
            for pos, entry in enumerate(experts):
                expert_id = _check_expert(pos, entry, n, seen)
                seen[expert_id] = entry["matrix"]
        except EvicritError:
            if seen:  # a value fault of an expert before this one comes first
                _expert_matrices(list(seen), list(seen.values()))
            raise
    return tuple(ids), _expert_matrices(expert_ids, values)


def _check_expert(pos: int, entry, n: int, seen: dict) -> str:
    """The structural checks of one expert; its id."""
    try:
        expert_id = entry["id"]
        rows = entry["matrix"]
    except (KeyError, TypeError):
        raise ParseError(f'experts[{pos}] needs "id" and "matrix"') from None
    if not isinstance(expert_id, str):
        raise ParseError('"id" must be a string', field=f"experts[{pos}]")
    if expert_id in seen:
        raise ParseError(f"duplicate expert id {reprlib.repr(expert_id)}",
                         field=f"experts[{pos}]")
    field = f"expert {reprlib.repr(expert_id)}"
    try:
        shape = np.array(rows, dtype=float).shape
    except (TypeError, ValueError, OverflowError):
        raise ParseError("matrix is not rectangular numeric", field=field) from None
    if shape != (n, n):
        raise OrderMismatch(f"matrix shape {shape} does not match {n} indicators",
                            field=field)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if type(cell) not in JSON_NUMBER_TYPES:
                raise ParseError(f"matrix cell ({i + 1},{j + 1}) is {reprlib.repr(cell)}, "
                                 f"not a number", field=field)
    return expert_id


def _expert_matrices(expert_ids: list[str], values) -> list[tuple[str, PairwiseMatrix]]:
    """(expert id, matrix) for each expert, the matrices checked as one stack;
    an InvalidMatrix names its expert, whose position is its ``index``."""
    try:
        matrices = pairwise_matrices(values)
    except InvalidMatrix as e:
        e.field = f"expert {reprlib.repr(expert_ids[e.index])}"
        raise
    return list(zip(expert_ids, matrices))


def _check_prior(value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise DegeneratePriors(f"prior {value!r} is not a nonnegative finite real")
    return value


@_collector_paused
def ingest_priors(path: str | Path, ids: Sequence[str], *,
                  digests: dict | None = None) -> dict[str, float]:
    """Read per-indicator prior weights from `indicator,lambda` CSV.

    The file must give exactly one nonnegative finite prior for each id in
    ``ids`` and none for any other id.
    """
    priors = dict(_csv_pairs(_read_text(path, digests), ["indicator", "lambda"], ids,
                             "prior", _check_prior))
    return {i: priors[i] for i in ids}


@_collector_paused
def load_ri_table(path: str | Path, *, digests: dict | None = None
                  ) -> dict[int, float]:
    """The built-in random indices updated from a JSON object order -> RI,
    each entry held to ``ahp.valid_ri``."""
    doc = _read_json(path, digests)
    if not isinstance(doc, dict):
        raise ParseError("RI table must be a JSON object")
    table = dict(DEFAULT_RI)
    for key, value in doc.items():
        ri = number(value, ParseError, f"bad RI entry {reprlib.repr(key)}")
        try:
            order = int(key)
        except ValueError:  # not an int, or past int()'s digit limit
            order = None
        # one spelling per order: ASCII digits with no leading zero
        if (order is None or not key.isascii() or not key.isdigit() or key.startswith("0")
                or not valid_ri(order, ri)):
            raise ParseError(f"bad RI entry {reprlib.repr(key)}: {reprlib.repr(value)}")
        table[order] = ri
    return table


def _bpa_cell(where: str, cell) -> Bpa:
    """``bpa_from_dict(cell)``, its errors located at the field ``where``."""
    try:
        return bpa_from_dict(cell)
    except EvicritError as e:
        e.field = _clipped(where)
        raise


@_collector_paused
def load_bpa_fixtures(path: str | Path, ids: Sequence[str], *,
                      digests: dict | None = None) -> dict[str, Bpa]:
    """Read per-indicator mass functions: JSON object indicator -> BPA.

    The object must have a key for each id in ``ids`` and no other key.
    """
    known = set(ids)
    doc = _read_json(path, digests)
    if not isinstance(doc, dict):
        raise ParseError("BPA fixtures must be a JSON object keyed by indicator id")
    out: dict[str, Bpa] = {}
    for indicator_id, cell in doc.items():
        if indicator_id not in known:
            raise UnknownIndicator(f"unknown indicator {reprlib.repr(indicator_id)}")
        out[indicator_id] = _bpa_cell(indicator_id, cell)
    _check_covered(ids, out, "assignment")
    return {i: out[i] for i in ids}


@_collector_paused
def load_bpa_list(path: str | Path) -> list[Bpa]:
    """Read an ordered list of mass functions ({"bpas": [...]} or a bare list)."""
    doc = _read_json(path, None)
    if isinstance(doc, dict) and "bpas" in doc:
        doc = doc["bpas"]
    if not isinstance(doc, list) or not doc:
        raise ParseError("expected a nonempty list of BPA objects")
    return [_bpa_cell(f"bpas[{pos}]", cell) for pos, cell in enumerate(doc)]


# --- manifest -----------------------------------------------------------------

def fused_masses(b: Bpa) -> dict:
    """JSON form of a fused mass function: its focal masses and BetP."""
    return {"masses": bpa_to_dict(b)["masses"],
            "betp": {l.name: p for l, p in pignistic(b).items()}}


@dataclass
class RunManifest:
    """Everything one pipeline run computed, traceable to input digests; the
    stage ``timings`` live in memory only, because ``to_dict`` omits them."""

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

def run_pipeline(config: PipelineConfig, *, _last_stage: str = "emit") -> RunManifest:
    """Execute ingestion, weighting, fuzzification, fusion, and ranking.

    Aborts with InconsistentMatrix when the aggregated judgments fail the
    consistency gate, unless ``config.force`` is set.  When ``out_dir`` is
    configured, the manifest and report files are written as well.

    ``_last_stage`` "consistency" or "weighting" ends the run after that
    stage and returns its ConsistencyReport or EntropyTable instead; such a
    run reads no scores and no BPA fixtures, and one that ends at
    "consistency" no priors.
    """
    from . import report as report_mod

    config = config.validated()
    weighs = _last_stage != "consistency"
    fuzzifies = _last_stage == "emit"
    if fuzzifies and config.scores is None:
        raise ConfigError("scores must be a path, got None")
    timings: dict[str, float] = {}

    digests: dict = {}  # input path -> SHA-256 of the bytes parsed from it
    with _stage("ingest", timings):
        # the matrices file names the run's indicators; every other input
        # must cover exactly those ids
        ids, experts = ingest_matrices(config.matrices, digests=digests)
        if fuzzifies:
            scores = ingest_scores(config.scores, ids, digests=digests)
        priors = None
        if weighs and config.priors is not None:
            priors = ingest_priors(config.priors, ids, digests=digests)
        ri_table = None
        if config.ri_table is not None:
            ri_table = load_ri_table(config.ri_table, digests=digests)
        fixtures = None
        if fuzzifies and config.bpa_fixtures is not None:
            fixtures = load_bpa_fixtures(config.bpa_fixtures, ids, digests=digests)

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
    if not weighs:
        return report

    with _stage("weighting", timings):
        decision = DecisionMatrix(aggregated.values, ids)
        table = build_table(decision, priors=priors)
    if not fuzzifies:
        return table

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
        inputs={name: {"path": str(path), "sha256": digests[path]}
                for name, path in (("scores", config.scores),
                                   ("matrices", config.matrices),
                                   ("priors", config.priors),
                                   ("ri_table", config.ri_table),
                                   ("bpa_fixtures", config.bpa_fixtures))
                if path is not None},
        config={
            "alpha": number(config.alpha) + 0.0,  # 1 and 1.0, -0.0 and 0: one run, one text
            "overlap_mode": config.overlap_mode,
            "ci_denominator": config.ci_denominator,
            "window": count(config.window),  # an int, whatever integer type it came as
            "stride": count(config.stride),
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
