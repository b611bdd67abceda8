"""Hand-emitted SVG figures: curve plots, bar charts and a correlation
color grid. No plotting dependency; output is a self-contained SVG document."""
from __future__ import annotations

WIDTH, HEIGHT = 640, 480
MARGIN = 60


def _header(title: str, width: int = WIDTH, height: int = HEIGHT,
            title_x: float = WIDTH / 2) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{title_x:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2})">{y_label}</text>',
    ]


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def curve_svg(xs, ys, title: str, x_label: str, y_label: str,
              annotation: str = None, diagonal: bool = False) -> str:
    """Polyline over unit-square data (ROC / PR curves)."""
    parts = _header(title) + _axes(x_label, y_label)
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    if diagonal:
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            'stroke="grey" stroke-dasharray="6,4"/>'
        )
    pts = " ".join(
        f"{_scale(x, 0, 1, x0, x1):.2f},{_scale(y, 0, 1, y0, y1):.2f}"
        for x, y in zip(xs, ys)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        'stroke-width="2"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = _scale(tick, 0, 1, x0, x1)
        ty = _scale(tick, 0, 1, y0, y1)
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{ty:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    if annotation:
        parts.append(
            f'<text x="{x1 - 10}" y="{y0 - 12}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{annotation}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_svg(categories, counts, title: str, x_label: str, y_label: str) -> str:
    parts = _header(title) + _axes(x_label, y_label)
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    top = max(counts) if counts and max(counts) > 0 else 1
    n = len(categories)
    slot = (x1 - x0) / max(n, 1)
    bar_w = slot * 0.7
    for i, (cat, count) in enumerate(zip(categories, counts)):
        left = x0 + i * slot + (slot - bar_w) / 2
        height = (count / top) * (y0 - y1)
        parts.append(
            f'<rect x="{left:.1f}" y="{y0 - height:.1f}" width="{bar_w:.1f}" '
            f'height="{height:.1f}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{left + bar_w / 2:.1f}" y="{y0 + 16}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{cat}</text>'
        )
        parts.append(
            f'<text x="{left + bar_w / 2:.1f}" y="{y0 - height - 4:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="9">{count}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(value: float) -> str:
    """Map [-1, 1] to blue (negative) .. white (zero) .. red (positive)."""
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        g = b = int(round(255 * (1 - v)))
        return f"rgb(255,{g},{b})"
    r = g = int(round(255 * (1 + v)))
    return f"rgb({r},{g},255)"


def heatmap_svg(labels, values, undefined_mask, title: str) -> str:
    """Color grid of a correlation matrix; undefined cells rendered grey."""
    p = len(labels)
    left, top = 150, 150
    size = 560
    cell = size / max(p, 1)
    parts = _header(title, left + size + 20, top + size + 20, left + size / 2)
    for i in range(p):
        for j in range(p):
            color = "lightgrey" if undefined_mask[i][j] else _heat_color(values[i][j])
            parts.append(
                f'<rect x="{left + j * cell:.2f}" y="{top + i * cell:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}" '
                'stroke="white" stroke-width="0.5"/>'
            )
    for i, label in enumerate(labels):
        y = top + (i + 0.5) * cell
        parts.append(
            f'<text x="{left - 6}" y="{y:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="9" '
            f'dominant-baseline="middle">{label}</text>'
        )
        x = left + (i + 0.5) * cell
        parts.append(
            f'<text x="{x:.1f}" y="{top - 6}" text-anchor="start" '
            f'font-family="sans-serif" font-size="9" '
            f'transform="rotate(-60 {x:.1f} {top - 6})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
