"""Hand-emitted SVG 1.1 line plots, no plotting dependency.

Output is plain text built with fixed-precision coordinates, so a given
data set always renders to identical bytes.  A timestamp comment can be
embedded; omitting it (timestamp=None) keeps the file fully reproducible.
"""

import math
from dataclasses import dataclass

__all__ = ["Series", "line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class Series:
    """One plotted curve: equal-length x and y sequences."""

    label: str
    x: tuple
    y: tuple
    markers: bool = False


def _esc(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _data_range(values):
    lo, hi = min(values), max(values)
    if hi - lo <= 0.0:
        pad = 0.1 * max(1.0, abs(hi))
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, target=5):
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if (hi - lo) / (mult * mag) <= target + 0.5:
            step = mult * mag
            break
    k0 = math.ceil(lo / step - 1e-9)
    k1 = math.floor(hi / step + 1e-9)
    return [k * step for k in range(k0, k1 + 1)]


def line_plot(series, title="", xlabel="", ylabel="", timestamp=None):
    """Render line series to an SVG 1.1 document string of _WIDTH x _HEIGHT."""
    series = list(series)
    if not series:
        raise ValueError("line_plot needs at least one series")
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not xs or any(len(s.x) != len(s.y) for s in series):
        raise ValueError("every series needs equal-length nonempty x and y")
    x_lo, x_hi = _data_range(xs)
    y_lo, y_hi = _data_range(ys)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _HEIGHT - _MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    if timestamp is not None:
        out.append(f"<!-- generated {timestamp} -->")
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')

    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_BOTTOM:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_BOTTOM + 16:.2f}" font-family="monospace" '
            f'font-size="11" fill="#333333" text-anchor="middle">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_RIGHT:.2f}" '
            f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{y + 4:.2f}" font-family="monospace" '
            f'font-size="11" fill="#333333" text-anchor="end">{ty:.6g}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        if s.markers:
            for x, y in zip(s.x, s.y):
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')

    legend_x = _MARGIN_LEFT + plot_w - 150.0
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = _MARGIN_TOP + 14.0 + 16.0 * i
        out.append(
            f'<line x1="{legend_x:.2f}" y1="{y - 4:.2f}" x2="{legend_x + 22:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28:.2f}" y="{y:.2f}" font-family="monospace" '
            f'font-size="11" fill="#333333">{_esc(s.label)}</text>'
        )

    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.2f}" y="20" font-family="monospace" font-size="14" '
            f'fill="#111111" text-anchor="middle">{_esc(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 10:.2f}" '
            f'font-family="monospace" font-size="12" fill="#111111" '
            f'text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" font-family="monospace" font-size="12" '
            f'fill="#111111" text-anchor="middle" '
            f'transform="rotate(-90 {cx:.2f} {cy:.2f})">{_esc(ylabel)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
