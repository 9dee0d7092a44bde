"""Report and chart emission.

Renders the manifest's tables as text, CSV, or JSON files plus an optional
grouped-bar SVG.  Each write goes to a uniquely named temporary sibling
first and is renamed into place, so a failed run never leaves a partial
file and two runs into one directory never share a temporary file.  Identical
manifests produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import secrets
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import FRAME, FULL_SET, Bpa, Subset, indicator
from .errors import IoError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import RunManifest

#: the mass columns of the fusion table: singletons, adjacent pairs, frame
FUSION_COLUMNS: tuple[tuple[str, Subset], ...] = (
    *((label.name, Subset.of(label)) for label in FRAME),
    *((f"{a.name}+{b.name}", Subset.of(a, b)) for a, b in zip(FRAME, FRAME[1:])),
    ("theta", FULL_SET),
)

_CHART_SERIES = ("E", "d", "W", "lambda", "W_adj")
_CHART_COLORS = ("#4878a8", "#e49444", "#5ba053", "#b65fa0", "#8a8a8a")


def _atomic_write(path: str | Path, data: str) -> Path:
    path = Path(path)
    # a random name created exclusively, so concurrent writers never share
    # it; unlike mkstemp's 0600 file it gets the mode the umask gives
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise IoError(f"cannot write {path}: {e}") from e
    return path


def json_text(doc) -> str:
    """The JSON encoding of every JSON output: two-space indent, final newline."""
    return json.dumps(doc, indent=2) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV encoding of every CSV output: a header row, then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_manifest(manifest: "RunManifest", path: str | Path) -> Path:
    return _atomic_write(path, json_text(manifest.to_dict()))


def _fusion_row_values(b: Bpa) -> list[float]:
    """Masses under the fusion columns plus the spillover on anything else."""
    listed = {subset for _, subset in FUSION_COLUMNS}
    values = [b.mass(subset) for _, subset in FUSION_COLUMNS]
    other = math.fsum(m for s, m in b.focal() if s not in listed)
    values.append(other)
    return values


# --- text rendering -----------------------------------------------------------

def _render_text(manifest: "RunManifest") -> str:
    out = io.StringIO()
    rep = manifest.consistency_report
    out.write("Consistency\n")
    out.write(f"  order={rep.order}  lambda_max={rep.lambda_max:.6f}  "
              f"CI={rep.ci:.6f} ({rep.denominator_mode} denominator)  "
              f"RI={rep.ri:g}  CR={rep.cr:.4f}  "
              f"acceptable={'yes' if rep.acceptable else 'NO'}\n\n")

    table = manifest.entropy_table
    out.write("Weighting\n")
    has_priors = table.priors is not None
    header = f"  {'indicator':<10}{'E':>9}{'d':>9}{'W':>9}"
    if has_priors:
        header += f"{'lambda':>9}{'W_adj':>9}"
    out.write(header + "\n")
    for j, indicator_id in enumerate(table.ids):
        line = (f"  {indicator_id:<10}{table.entropy[j]:>9.4f}"
                f"{table.div[j]:>9.4f}{table.weights[j]:>9.4f}")
        if has_priors:
            line += f"{table.priors[j]:>9.4f}{table.adjusted[j]:>9.4f}"
        out.write(line + "\n")
    out.write("\n")

    out.write("Ratings\n")
    out.write(f"  {'indicator':<10}{'score':>7}  {'label':<6}description\n")
    for indicator_id, score, label in manifest.ratings:
        try:
            description = indicator(indicator_id).description
        except KeyError:
            description = ""
        out.write(f"  {indicator_id:<10}{score:>7.2f}  {label:<6}{description}\n")
    out.write("\n")

    out.write("Fusion\n")
    labels = [", ".join(ids) for ids in manifest.window_ids]
    label_width = max(len("combination"), max((len(l) for l in labels), default=0),
                      len("Average")) + 2
    head = f"  {'combination':<{label_width}}"
    for name, _ in FUSION_COLUMNS:
        head += f"{name:>8}"
    head += f"{'other':>8}{'k':>8}\n"
    out.write(head)
    for label_text, result in zip(labels, manifest.window_results):
        row = f"  {label_text:<{label_width}}"
        for value in _fusion_row_values(result.bpa):
            row += f"{value:>8.4f}"
        row += f"{result.conflict_k:>8.4f}\n"
        out.write(row)
    row = f"  {'Average':<{label_width}}"
    for value in _fusion_row_values(manifest.overall):
        row += f"{value:>8.4f}"
    out.write(row + f"{'':>8}\n\n")

    for key, ranking in manifest.rankings.items():
        out.write(f"Ranking by {ranking.note or key}\n")
        out.write(f"  {'rank':>4}  {'id':<6}{'value':>12}\n")
        for entry_id, value, position in ranking.entries:
            out.write(f"  {position:>4}  {entry_id:<6}{value:>12.6f}\n")
        out.write(f"  top={ranking.top}  bottom={ranking.bottom}\n\n")
    return out.getvalue()


# --- CSV rendering --------------------------------------------------------------

def _render_ratings_csv(manifest: "RunManifest") -> str:
    return csv_text(("indicator", "score", "label"),
                     ((indicator_id, repr(score), label)
                      for indicator_id, score, label in manifest.ratings))


def _render_fusion_csv(manifest: "RunManifest") -> str:
    rows = [("+".join(ids), *(repr(v) for v in _fusion_row_values(result.bpa)),
             repr(result.conflict_k))
            for ids, result in zip(manifest.window_ids, manifest.window_results)]
    rows.append(("Average", *(repr(v) for v in _fusion_row_values(manifest.overall)), ""))
    return csv_text(("window", *(name for name, _ in FUSION_COLUMNS), "other",
                      "conflict_k"), rows)


def _render_ranking_csv(manifest: "RunManifest") -> str:
    return csv_text(("measure", "rank", "id", "value"),
                     ((key, position, entry_id, repr(value))
                      for key, ranking in manifest.rankings.items()
                      for entry_id, value, position in ranking.entries))


# --- JSON rendering --------------------------------------------------------------

def _render_json(manifest: "RunManifest") -> str:
    doc = manifest.to_dict()
    body = {key: doc[key] for key in
            ("consistency", "entropy_table", "ratings", "fusion", "rankings")}
    return json_text(body)


def emit_report(manifest: "RunManifest", fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report files for one format; returns the written paths."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    if fmt == "text":
        written.append(_atomic_write(out_dir / "report.txt", _render_text(manifest)))
    elif fmt == "csv":
        written.append(_atomic_write(out_dir / "entropy_table.csv",
                                     manifest.entropy_table.to_csv()))
        written.append(_atomic_write(out_dir / "ratings.csv",
                                     _render_ratings_csv(manifest)))
        written.append(_atomic_write(out_dir / "fusion.csv",
                                     _render_fusion_csv(manifest)))
        written.append(_atomic_write(out_dir / "ranking.csv",
                                     _render_ranking_csv(manifest)))
    elif fmt == "json":
        written.append(_atomic_write(out_dir / "report.json", _render_json(manifest)))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return written


# --- chart ------------------------------------------------------------------------

def emit_chart(manifest: "RunManifest", path: str | Path) -> Path:
    """Grouped bar chart of E, d, W, lambda, W_adj per indicator (SVG).

    One group per indicator, five bars per group (14 x 5 = 70 bars for the
    bundled catalog); missing prior columns render as zero-height bars.
    Output bytes depend only on the manifest.
    """
    table = manifest.entropy_table
    n = len(table.ids)
    series = [
        list(table.entropy),
        list(table.div),
        list(table.weights),
        list(table.priors) if table.priors is not None else [0.0] * n,
        list(table.adjusted) if table.adjusted is not None else [0.0] * n,
    ]
    top = max(1.0, max(max(values) for values in series))

    bar_w = 7.0
    group_gap = 10.0
    group_w = bar_w * len(series) + group_gap
    x0, y0 = 50.0, 16.0
    plot_h = 240.0
    plot_w = group_w * n
    width = x0 + plot_w + 12.0
    height = y0 + plot_h + 56.0
    baseline = y0 + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<style>text{font-family:sans-serif;font-size:9px;fill:#222}'
        '.axis{stroke:#222;stroke-width:1}</style>',
        f'<line class="axis" x1="{x0:.2f}" y1="{baseline:.2f}" '
        f'x2="{x0 + plot_w:.2f}" y2="{baseline:.2f}"/>',
        f'<line class="axis" x1="{x0:.2f}" y1="{y0:.2f}" '
        f'x2="{x0:.2f}" y2="{baseline:.2f}"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = tick * top
        y = baseline - tick * plot_h
        parts.append(f'<line class="axis" x1="{x0 - 3:.2f}" y1="{y:.2f}" '
                     f'x2="{x0:.2f}" y2="{y:.2f}"/>')
        parts.append(f'<text x="{x0 - 6:.2f}" y="{y + 3:.2f}" '
                     f'text-anchor="end">{value:.2f}</text>')
    for g, indicator_id in enumerate(table.ids):
        gx = x0 + g * group_w + group_gap / 2.0
        for s, values in enumerate(series):
            value = values[g]
            h = (value / top) * plot_h
            bx = gx + s * bar_w
            by = baseline - h
            parts.append(
                f'<rect class="bar" x="{bx:.2f}" y="{by:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" '
                f'fill="{_CHART_COLORS[s]}">'
                f'<title>{indicator_id} {_CHART_SERIES[s]}={value:.6g}</title>'
                f'</rect>')
        parts.append(f'<text x="{gx + bar_w * len(series) / 2.0:.2f}" '
                     f'y="{baseline + 12:.2f}" text-anchor="middle">'
                     f'{indicator_id}</text>')
    legend_y = baseline + 30.0
    for s, name in enumerate(_CHART_SERIES):
        lx = x0 + s * 70.0
        parts.append(f'<rect class="key" x="{lx:.2f}" y="{legend_y:.2f}" '
                     f'width="10" height="10" fill="{_CHART_COLORS[s]}"/>')
        parts.append(f'<text x="{lx + 14:.2f}" y="{legend_y + 9:.2f}">{name}</text>')
    parts.append("</svg>")
    return _atomic_write(path, "\n".join(parts) + "\n")
