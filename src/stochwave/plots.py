"""Dependency-free SVG polyline plots for study output.

Presentation only: fixed canvas, linear or log10 axes, one polyline plus
markers per series, text legend on the right.
"""

from __future__ import annotations

import math

__all__ = ["write_line_plot"]

_WIDTH, _HEIGHT = 760, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 170, 48, 58
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _spread(lo, hi):
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _ticks(lo, hi, log):
    if log:
        return [float(d) for d in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)] or [lo, hi]
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(5)]


def _tick_label(value, log):
    if log:
        return f"1e{value:g}"
    return f"{value:.4g}"


def _axis_points(xs, ys, logx, logy):
    """The finite points of a series that its axes can show, log10-mapped on a log axis."""
    pts = []
    for x, y in zip(xs, ys):
        if logx and x <= 0 or logy and y <= 0:
            continue
        if math.isfinite(x) and math.isfinite(y):
            pts.append((math.log10(x) if logx else float(x), math.log10(y) if logy else float(y)))
    return pts


def write_line_plot(path, title, xlabel, ylabel, series, logx=False, logy=False):
    """Write a polyline chart; series is a list of (label, xs, ys) triples."""
    mapped = [_axis_points(xs, ys, logx, logy) for _, xs, ys in series]
    pts = [p for series_pts in mapped for p in series_pts]
    if pts:
        x_lo, x_hi = _spread(min(p[0] for p in pts), max(p[0] for p in pts))
        y_lo, y_hi = _spread(min(p[1] for p in pts), max(p[1] for p in pts))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]
    for tx in _ticks(x_lo, x_hi, logx):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_TOP + plot_h}" x2="{px:.1f}" y2="{_TOP + plot_h + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{_TOP + plot_h + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_tick_label(tx, logx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi, logy):
        py = sy(ty)
        parts.append(f'<line x1="{_LEFT - 5}" y1="{py:.1f}" x2="{_LEFT}" y2="{py:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{_LEFT - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{_tick_label(ty, logy)}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )

    for i, ((label, _, _), series_pts) in enumerate(zip(series, mapped)):
        color = _COLORS[i % len(_COLORS)]
        coords = [(sx(x), sy(y)) for x, y in series_pts]
        if len(coords) > 1:
            points = " ".join(f"{px:.2f},{py:.2f}" for px, py in coords)
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for px, py in coords:
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>')
        ly = _TOP + 14 + 18 * i
        lx = _WIDTH - _RIGHT + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
