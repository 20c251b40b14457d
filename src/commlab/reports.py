"""Report rows, CSV/JSON emission, and the margin histogram SVG."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from .errors import InvalidInputError


@dataclass
class ReportRow:
    """One experiment row; the field order is the report's column order.
    Missing analyses stay None and serialize as empty fields, never as
    zeros."""

    instance_id: str
    seed: int | None = None
    sizes: str | None = None
    rho_global: int | None = None
    rho_box_max: int | None = None
    H_T: float | None = None
    I_XY: float | None = None
    I_XY_given_T: float | None = None
    margin_main: float | None = None
    ic: float | None = None
    margin_ic: float | None = None
    cover_exact: int | None = None
    cover_greedy: int | None = None
    fooling_best: int | None = None
    rank_rational: int | None = None
    rank_gf2: int | None = None
    color_count: int | None = None
    status: str = "ok"
    runtime_ms: float | None = None


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows) -> str:
    """One line per row, "\\n"-terminated; a field that holds a comma (a
    timeout status with its bounds) is quoted, so every row has one field per
    column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([format_value(getattr(row, col)) for col in REPORT_COLUMNS])
    return out.getvalue()


def rows_to_json(rows) -> str:
    payload = [{col: getattr(row, col) for col in REPORT_COLUMNS} for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(rows, path: str | None, fmt: str = "csv", plot_path: str | None = None) -> str:
    """Write rows as CSV or JSON (to path, or return the text when path is
    None) and optionally an SVG histogram of the margin_main column."""
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "json":
        text = rows_to_json(rows)
    else:
        raise InvalidInputError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if plot_path is not None:
        margins = [row.margin_main for row in rows if row.margin_main is not None]
        with open(plot_path, "w", encoding="utf-8") as fh:
            fh.write(margin_histogram_svg(margins))
    return text


def margin_histogram_svg(margins) -> str:
    """Static SVG histogram in 16 bins; bars carry class="bar" so counts are greppable."""
    width, height = 640, 400
    pad = 40.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if margins:
        lo = min(margins)
        hi = max(margins)
        span = hi - lo
        if span <= 0.0:
            counts = [len(margins)]
            edges = [lo, lo + 1.0]
        else:
            counts = [0] * 16
            for m in margins:
                idx = min(int((m - lo) / span * 16), 15)
                counts[idx] += 1
            edges = [lo + span * i / 16 for i in range(17)]
        n_bins = len(counts)
        peak = max(counts)
        bar_w = (width - 2 * pad) / n_bins
        for i, c in enumerate(counts):
            if c == 0:
                continue
            bar_h = (height - 2 * pad) * c / peak
            x = pad + i * bar_w
            y = height - pad - bar_h
            parts.append(
                f'<rect class="bar" x="{format(x, ".17g")}" y="{format(y, ".17g")}" '
                f'width="{format(bar_w, ".17g")}" height="{format(bar_h, ".17g")}" '
                f'fill="steelblue"/>'
            )
        parts.append(
            f'<text x="{pad}" y="{height - 10}" font-size="12">'
            f"min={format(float(edges[0]), '.6g')}</text>"
        )
        parts.append(
            f'<text x="{width - pad - 100}" y="{height - 10}" font-size="12">'
            f"max={format(float(edges[-1]), '.6g')}</text>"
        )
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
