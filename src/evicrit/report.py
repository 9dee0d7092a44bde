"""Report and chart emission.

Renders the manifest's tables as text, CSV, or JSON files plus an optional
grouped-bar SVG.  Identical manifests produce byte-identical outputs.  Every
file the package writes, the CLI's ``--out`` files and the example export
included, goes through one write:

* a regular file that already holds exactly the bytes to be written is left
  in place, with its inode, mtime and mode;
* anything else at the path, a symlink included, is replaced atomically.
  The bytes go to a uniquely named temporary sibling first, which is renamed
  over the path, so a failed run never leaves a partial file and two runs
  into one directory never share a temporary file.

``manifest.json`` follows the same rule, so an identical rerun writes no file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import secrets
import stat
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import FRAME, FULL_SET, JSON_NUMBER_TYPES, Bpa, Subset
from .datasets import reference_ratings
from .entropy import EntropyTable
from .errors import IoError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import RunManifest

#: the mass columns of the fusion table: singletons, adjacent pairs, frame
FUSION_COLUMNS: tuple[tuple[str, Subset], ...] = (
    *((label.name, Subset.of(label)) for label in FRAME),
    *((f"{a.name}+{b.name}", Subset.of(a, b)) for a, b in zip(FRAME, FRAME[1:])),
    ("theta", FULL_SET),
)

_CHART_COLORS = dict(zip(EntropyTable.COLUMNS,
                         ("#4878a8", "#e49444", "#5ba053", "#b65fa0", "#8a8a8a")))
#: an id as XML text: escape's entities, CR as a reference and U+FFFD for what XML 1.0 cannot hold
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;", **dict.fromkeys(
    map(chr, (*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF)), "\ufffd")})


def _atomic_write(path: str | Path, data: str) -> Path:
    path = Path(path)
    encoded = data.encode("utf-8")
    if _holds(path, encoded):
        return path
    # a random name of fixed length created exclusively, so concurrent
    # writers never share it and a target name of up to NAME_MAX bytes
    # fits; unlike mkstemp's 0600 file it gets the mode the umask gives
    tmp = path.with_name(f".{secrets.token_hex(8)}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as f:
            f.write(encoded)
        os.replace(tmp, path)
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        with contextlib.suppress(OSError, ValueError):
            tmp.unlink()
        raise IoError(f"cannot write {path}: {e}") from e
    return path


def _holds(path: Path, data: bytes) -> bool:
    """Whether ``path`` is a regular file that holds exactly ``data``.

    A symlink is not followed and a FIFO does not block the open; anything
    but a regular file of ``len(data)`` bytes is not read at all.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return False
    try:
        st = os.fstat(fd)
        # one byte more than data, so a file that grew since fstat differs
        return (stat.S_ISREG(st.st_mode) and st.st_size == len(data)
                and os.read(fd, len(data) + 1) == data)
    except OSError:
        return False
    finally:
        os.close(fd)


def json_text(doc) -> str:
    """The JSON encoding of every JSON output: two-space indent, final newline.

    The bytes are those of ``json.dumps(doc, indent=2) + "\\n"``, and so are
    the TypeErrors for values and keys that JSON cannot hold.  With an
    indent, ``json.dumps`` runs its pure-Python encoder; this writer joins
    strings from the C string escaper and ``float.__repr__`` instead.
    """
    return _json_value(doc, "\n") + "\n"


_escape = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
#: what json.dumps writes for the non-finite floats, keyed by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = _float_repr(x)
    return _NON_FINITE.get(text, text)


def _json_value(o, newline: str) -> str:
    """``o`` encoded at the nesting whose line break and indent is ``newline``."""
    kind = type(o)
    if kind is str:
        return _escape(o)
    if kind is float:
        return _json_float(o)
    if kind is dict:
        return _json_dict(o, newline)
    if kind is list:
        return _json_list(o, newline)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    if isinstance(o, (list, tuple)):
        return _json_list(o, newline)
    if isinstance(o, dict):
        return _json_dict(o, newline)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_list(o, newline: str) -> str:
    if not o:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in o]) + newline + "]"


def _json_dict(o, newline: str) -> str:
    if not o:
        return "{}"
    inner = newline + "  "
    return "{" + inner + ("," + inner).join([
        (_escape(k) if type(k) is str else _json_key(k)) + ": " + _json_value(v, inner)
        for k, v in o.items()]) + newline + "}"


def _json_key(k) -> str:
    """A non-str dict key as json.dumps coerces it."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, JSON_NUMBER_TYPES):  # bool is an int
        return '"' + _json_value(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV encoding of every CSV output: a header row, then ``rows``,
    each record ended by "\\n".

    The csv module quotes a CR or LF in a field only when its line
    terminator holds it, so the writer ends its records in "\\r\\n" and
    each record it writes is cut back to "\\n".
    """
    records: list[str] = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([record[:-2] + "\n" for record in records])


def write_manifest(manifest: "RunManifest", path: str | Path) -> Path:
    return _atomic_write(path, json_text(manifest.to_dict()))


def _fusion_rows(manifest: "RunManifest") -> list[tuple]:
    """The fusion table: (ids, masses, k) for each window, then the average,
    whose ids are ("Average",) and whose k is None.  The masses are those under
    ``FUSION_COLUMNS`` plus the spill-over on any other subset."""
    listed = {subset for _, subset in FUSION_COLUMNS}

    def masses(b: Bpa) -> list[float]:
        return [*(b.mass(subset) for _, subset in FUSION_COLUMNS),
                math.fsum(m for s, m in b.focal() if s not in listed)]

    return [*((ids, masses(result.bpa), result.conflict_k)
              for ids, result in zip(manifest.window_ids, manifest.window_results)),
            (("Average",), masses(manifest.overall), None)]


# --- text rendering -----------------------------------------------------------

def _present_columns(table: EntropyTable) -> dict[str, tuple[float, ...]]:
    """The table's columns that have values: no lambda and W_adj without priors."""
    return {name: values for name, values in table.columns().items() if values is not None}


def _render_text(manifest: "RunManifest") -> str:
    out = io.StringIO()
    rep = manifest.consistency_report
    out.write("Consistency\n")
    out.write(f"  order={rep.order}  lambda_max={rep.lambda_max:.6f}  "
              f"CI={rep.ci:.6f} ({rep.denominator_mode} denominator)  "
              f"RI={rep.ri:g}  CR={rep.cr:.4f}  "
              f"acceptable={'yes' if rep.acceptable else 'NO'}\n\n")

    table = manifest.entropy_table
    columns = _present_columns(table)
    out.write("Weighting\n")
    out.write(f"  {'indicator':<10}" + "".join(f"{name:>9}" for name in columns) + "\n")
    for indicator_id, *values in zip(table.ids, *columns.values()):
        out.write(f"  {indicator_id:<10}" + "".join(f"{v:>9.4f}" for v in values) + "\n")
    out.write("\n")

    out.write("Ratings\n")
    out.write(f"  {'indicator':<10}{'score':>7}  {'label':<6}description\n")
    descriptions = {r.indicator: r.description for r in reference_ratings()}
    for indicator_id, score, label in manifest.ratings:
        description = descriptions.get(indicator_id, "")
        out.write(f"  {indicator_id:<10}{score:>7.2f}  {label:<6}{description}\n")
    out.write("\n")

    out.write("Fusion\n")
    rows = [(", ".join(ids), masses, k) for ids, masses, k in _fusion_rows(manifest)]
    label_width = max(len("combination"), *(len(label) for label, _, _ in rows)) + 2
    out.write(f"  {'combination':<{label_width}}"
              + "".join(f"{name:>8}" for name, _ in FUSION_COLUMNS) + f"{'other':>8}{'k':>8}\n")
    for label, masses, k in rows:
        out.write(f"  {label:<{label_width}}" + "".join(f"{v:>8.4f}" for v in masses)
                  + f"{'' if k is None else format(k, '.4f'):>8}\n")
    out.write("\n")

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
    return csv_text(("window", *(name for name, _ in FUSION_COLUMNS), "other", "conflict_k"),
                    (("+".join(ids), *map(repr, masses), "" if k is None else repr(k))
                     for ids, masses, k in _fusion_rows(manifest)))


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


#: each report format's files, by name, with the renderer of each
REPORT_FILES = {
    "text": {"report.txt": _render_text},
    "csv": {"entropy_table.csv": lambda manifest: manifest.entropy_table.to_csv(),
            "ratings.csv": _render_ratings_csv,
            "fusion.csv": _render_fusion_csv,
            "ranking.csv": _render_ranking_csv},
    "json": {"report.json": _render_json},
}
REPORT_FORMATS = tuple(REPORT_FILES)


def emit_report(manifest: "RunManifest", fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report files of ``fmt``, a key of ``REPORT_FILES``; returns
    the written paths."""
    return [_atomic_write(Path(out_dir) / name, render(manifest))
            for name, render in REPORT_FILES[fmt].items()]


# --- chart ------------------------------------------------------------------------

def emit_chart(manifest: "RunManifest", path: str | Path) -> Path:
    """Grouped bar chart of the weighting table, one group per indicator (SVG):
    one bar per column that has values, 14 x 5 = 70 bars for the bundled
    catalog with priors and 14 x 3 without.  Output bytes depend only on the manifest."""
    table = manifest.entropy_table
    series = _present_columns(table)
    top = max(1.0, max(max(values) for values in series.values()))

    bar_w = 7.0
    group_gap = 10.0
    group_w = bar_w * len(series) + group_gap
    x0, y0 = 50.0, 16.0
    plot_h = 240.0
    plot_w = group_w * len(table.ids)
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
        label = indicator_id.translate(_XML_TEXT)
        gx = x0 + g * group_w + group_gap / 2.0
        for s, (name, values) in enumerate(series.items()):
            value = values[g]
            h = (value / top) * plot_h
            bx = gx + s * bar_w
            by = baseline - h
            parts.append(
                f'<rect class="bar" x="{bx:.2f}" y="{by:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" '
                f'fill="{_CHART_COLORS[name]}">'
                f'<title>{label} {name}={value:.6g}</title>'
                f'</rect>')
        parts.append(f'<text x="{gx + bar_w * len(series) / 2.0:.2f}" '
                     f'y="{baseline + 12:.2f}" text-anchor="middle">'
                     f'{label}</text>')
    legend_y = baseline + 30.0
    for s, name in enumerate(series):
        lx = x0 + s * 70.0
        parts.append(f'<rect class="key" x="{lx:.2f}" y="{legend_y:.2f}" '
                     f'width="10" height="10" fill="{_CHART_COLORS[name]}"/>')
        parts.append(f'<text x="{lx + 14:.2f}" y="{legend_y + 9:.2f}">{name}</text>')
    parts.append("</svg>")
    return _atomic_write(path, "\n".join(parts) + "\n")
