"""Plain-text formatting of experiment results.

The benchmark harnesses print the same rows/series the paper's tables
and figures report; these helpers keep the formatting uniform.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append(
            [
                float_fmt.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(list(headers)))
    lines.append(fmt_line(["-" * w for w in widths]))
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Mapping[object, float]],
    x_label: str = "x",
    title: Optional[str] = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render named series sharing an x-axis (one figure line each)."""
    xs: List[object] = []
    for points in series.values():
        for x in points:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series.keys())
    rows = []
    for x in xs:
        row: List[object] = [x]
        for name in series:
            value = series[name].get(x)
            row.append("-" if value is None else float(value))
        rows.append(row)
    return format_table(headers, rows, title=title, float_fmt=float_fmt)
