"""Minimal SVG line charts: dependency-free, deterministic, diffable text.

Only what the CLI needs: single panels with axes, ticks and a legend, and a
three-panel row for ring-down comparisons. Coordinates are formatted with
fixed precision so identical data produce identical files.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


class PlotError(ValueError):
    """Plot data contained NaN or Inf."""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e4 or magnitude < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def _check_series(series):
    """The series (at least one; x and y non-empty, of one shape) as float arrays."""
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise PlotError(f"series {label!r} contains NaN or Inf")
        cleaned.append((str(label), x, y))
    return cleaned


def _limits(values):
    lo = min(float(np.min(v)) for v in values)
    hi = max(float(np.max(v)) for v in values)
    if hi == lo:
        pad = 1.0 if hi == 0.0 else abs(hi) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _text(x, y, text, anchor, size, rotate=False) -> str:
    """Sans-serif text at (x, y); ``rotate`` turns it by -90 degrees about that point."""
    turn = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" font-size="{size}" '
        f'font-family="sans-serif"{turn}>{text}</text>'
    )


def _line(x1, y1, x2, y2, stroke="#444", width=1) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _panel(series, x0, y0, panel_w, panel_h, title, x_label, y_label):
    series = _check_series(series)
    x_lo, x_hi = _limits([x for _, x, _ in series])
    y_lo, y_hi = _limits([y for _, _, y in series])
    plot_w = panel_w - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = panel_h - _MARGIN_TOP - _MARGIN_BOTTOM
    ax = x0 + _MARGIN_LEFT
    ay = y0 + _MARGIN_TOP

    def sx(v):
        return ax + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return ay + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<rect x="{_fmt(ax)}" y="{_fmt(ay)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#444" stroke-width="1"/>'
    ]
    if title:
        parts.append(_text(x0 + panel_w / 2, y0 + 20, title, "middle", 13))
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xt, yt = sx(xv), sy(yv)
        parts.append(_line(xt, ay + plot_h, xt, ay + plot_h + 4))
        parts.append(_text(xt, ay + plot_h + 17, _tick_label(xv), "middle", 10))
        parts.append(_line(ax - 4, yt, ax, yt))
        parts.append(_text(ax - 7, yt + 3, _tick_label(yv), "end", 10))
    if x_label:
        parts.append(_text(ax + plot_w / 2, ay + plot_h + 36, x_label, "middle", 11))
    if y_label:
        parts.append(_text(x0 + 14, ay + plot_h / 2, y_label, "middle", 11, rotate=True))
    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(u))},{_fmt(sy(v))}" for u, v in zip(x, y))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        if len(series) > 1:
            ly = ay + 14 + 14 * k
            lx = ax + plot_w - 8
            parts.append(_line(lx - 26, ly - 4, lx - 8, ly - 4, color, 2))
            parts.append(_text(lx - 30, ly, label, "end", 10))
    return "".join(parts)


def _document(width: int, height: int, body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>{body}</svg>\n'
    )


def line_chart(series, *, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render one 640 x 420 panel of line series: [(label, x, y), ...] -> SVG text."""
    return _document(640, 420, _panel(series, 0.0, 0.0, 640.0, 420.0, title, x_label, y_label))


def triptych(panels, *, x_label: str = "", y_label: str = "") -> str:
    """Three (or more) titled 360 x 360 panels side by side: [(title, series), ...]."""
    parts = [
        _panel(series, i * 360.0, 0.0, 360.0, 360.0, title, x_label, y_label if i == 0 else "")
        for i, (title, series) in enumerate(panels)
    ]
    return _document(360 * len(panels), 360, "".join(parts))
