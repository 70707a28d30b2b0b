"""Minimal dependency-free SVG chart emitters (bar, heatmap, line, token strip).

All output is assembled from fixed-format strings, so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import html


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities; SVG text needs no quote escaping."""
    return html.escape(text, quote=False)


# Light-to-dark blue ramp endpoints.
_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def ramp_color(value: float) -> str:
    """Hex color for a normalized value in [0, 1] (clamped)."""
    v = max(0.0, min(1.0, value))
    channels = (round(l + (d - l) * v) for l, d in zip(_LIGHT, _DARK))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _svg(width: int, height: int, body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    )
    caption = f'<text x="8" y="16" font-size="13">{_escape(title)}</text>'
    return "\n".join([head, caption] + body + ["</svg>"]) + "\n"


def bar_chart(labels: list[str], values: list[float], title: str) -> str:
    width, bar_height, gap, left = 520, 18, 6, 130
    height = 40 + len(labels) * (bar_height + gap)
    peak = max([abs(v) for v in values] + [1.0])
    body = []
    for i, (label, value) in enumerate(zip(labels, values)):
        y = 32 + i * (bar_height + gap)
        bar = (width - left - 70) * abs(value) / peak
        body.append(
            f'<text x="{left - 6}" y="{y + 13}" text-anchor="end">{_escape(label)}</text>'
        )
        body.append(
            f'<rect x="{left}" y="{y}" width="{bar:.1f}" height="{bar_height}" '
            f'fill="{ramp_color(0.75)}"/>'
        )
        body.append(f'<text x="{left + bar + 4:.1f}" y="{y + 13}">{value:g}</text>')
    return _svg(width, height, body, title)


def heatmap_grid(
    row_labels: list[str],
    col_labels: list[str],
    values: list[list[float | None]],
    title: str,
    fmt: str = "{:g}",
) -> str:
    cell, left, top = 64, 140, 52
    width = left + cell * len(col_labels) + 20
    height = top + cell * len(row_labels) + 20
    present = [v for row in values for v in row if v is not None]
    lo = min(present) if present else 0.0
    hi = max(present) if present else 1.0
    spread = hi - lo if hi > lo else 1.0
    body = []
    for j, label in enumerate(col_labels):
        body.append(
            f'<text x="{left + j * cell + cell // 2}" y="{top - 8}" '
            f'text-anchor="middle">{_escape(label)}</text>'
        )
    for i, row_label in enumerate(row_labels):
        y = top + i * cell
        body.append(
            f'<text x="{left - 6}" y="{y + cell // 2 + 4}" text-anchor="end">'
            f"{_escape(row_label)}</text>"
        )
        for j, value in enumerate(values[i]):
            x = left + j * cell
            if value is None:
                body.append(
                    f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                    f'fill="none" stroke="#999"/>'
                )
                body.append(
                    f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                    f'text-anchor="middle" fill="#999">n/a</text>'
                )
                continue
            norm = (value - lo) / spread
            text_fill = "#000" if norm < 0.6 else "#fff"
            body.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{ramp_color(norm)}" stroke="#fff"/>'
            )
            body.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" text-anchor="middle" '
                f'fill="{text_fill}">{_escape(fmt.format(value))}</text>'
            )
    return _svg(width, height, body, title)


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
) -> str:
    width, height, left, bottom, top, right = 560, 360, 60, 40, 36, 150
    xs = [p[0] for _, points in series for p in points]
    ys = [p[1] for _, points in series for p in points]
    x_lo, x_hi = x_range if x_range else (min(xs), max(xs))
    y_lo, y_hi = y_range if y_range else (min(ys), max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / x_span * (width - left - right)

    def sy(y: float) -> float:
        return height - bottom - (y - y_lo) / y_span * (height - bottom - top)

    body = [
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="#000"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="#000"/>',
        f'<text x="{(left + width - right) // 2}" y="{height - 8}" '
        f'text-anchor="middle">{_escape(x_label)}</text>',
        f'<text x="14" y="{(top + height - bottom) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(top + height - bottom) // 2})">{_escape(y_label)}</text>',
    ]
    for i, (name, points) in enumerate(series):
        color = ramp_color(0.25 + 0.75 * (i / max(1, len(series) - 1)) if len(series) > 1 else 0.8)
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
        body.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = top + 16 * i
        body.append(
            f'<rect x="{width - right + 10}" y="{legend_y - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        body.append(f'<text x="{width - right + 24}" y="{legend_y}">{_escape(name)}</text>')
    return _svg(width, height, body, title)


def token_heatmap(
    tokens: list[str], colors: list[float], values: list[float], title: str
) -> str:
    cell_h, top, pad = 46, 40, 8
    widths = [max(44, 8 * len(t) + 14) for t in tokens]
    width = pad * 2 + sum(widths)
    body = []
    x = pad
    for token, color, value, w in zip(tokens, colors, values, widths):
        text_fill = "#000" if color < 0.6 else "#fff"
        body.append(
            f'<rect x="{x}" y="{top}" width="{w}" height="{cell_h}" '
            f'fill="{ramp_color(color)}" stroke="#fff"/>'
        )
        body.append(
            f'<text x="{x + w / 2:.1f}" y="{top + 18}" text-anchor="middle" '
            f'fill="{text_fill}">{_escape(token)}</text>'
        )
        body.append(
            f'<text x="{x + w / 2:.1f}" y="{top + 36}" text-anchor="middle" '
            f'fill="{text_fill}" font-size="9">{value:.3f}</text>'
        )
        x += w
    return _svg(width, top + cell_h + 16, body, title)


def roc_chart(curves: dict[str, "object"], title: str) -> str:
    """ROC curves plus the chance diagonal; expects RocCurve objects."""
    series = [("chance", [(0.0, 0.0), (1.0, 1.0)])]
    for name, curve in sorted(curves.items()):
        series.append((f"{name} (auc {curve.auc:.2f})", list(curve.points)))
    return line_chart(
        series,
        title,
        x_label="false positive rate",
        y_label="true positive rate",
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
    )
