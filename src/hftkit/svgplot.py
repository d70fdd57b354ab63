"""Minimal deterministic SVG line plots.

No third-party plotting: a fixed 800x600 view box, one polyline per plot,
optional circle markers, and nothing (no timestamps, no ids) that could make
two renderings of the same data differ.
"""

from __future__ import annotations

from typing import Sequence

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 90
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 60
N_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_label(x: float) -> str:
    return f"{x:.6g}"


class _Frame:
    """Affine map from data coordinates to the plot rectangle."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        if xmax == xmin:
            xmin, xmax = xmin - 0.5, xmax + 0.5
        if ymax == ymin:
            ymin, ymax = ymin - 0.5, ymax + 0.5
        ypad = 0.05 * (ymax - ymin)
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin - ypad, ymax + ypad

    def px(self, x: float) -> float:
        span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + span * (x - self.xmin) / (self.xmax - self.xmin)

    def py(self, y: float) -> float:
        span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - span * (y - self.ymin) / (self.ymax - self.ymin)


def line_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    markers: Sequence[tuple[float, float]] = (),
) -> str:
    """Render one curve (and optional circle markers) as an SVG document."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two or more (x, y) samples")
    frame = _Frame(xs, list(ys) + [m[1] for m in markers])

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        xval = frame.xmin + frac * (frame.xmax - frame.xmin)
        yval = frame.ymin + frac * (frame.ymax - frame.ymin)
        xpix = frame.px(xval)
        ypix = frame.py(yval)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{_fmt(xpix)}" y2="{HEIGHT - MARGIN_BOTTOM + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{HEIGHT - MARGIN_BOTTOM + 22}" '
            f'font-size="13" text-anchor="middle">{_axis_label(xval)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 6}" y1="{_fmt(ypix)}" '
            f'x2="{MARGIN_LEFT}" y2="{_fmt(ypix)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{_fmt(ypix + 4)}" '
            f'font-size="13" text-anchor="end">{_axis_label(yval)}</text>'
        )

    points = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )

    for mx, my in markers:
        parts.append(
            f'<circle cx="{_fmt(frame.px(mx))}" cy="{_fmt(frame.py(my))}" r="6" '
            f'fill="none" stroke="red" stroke-width="2"/>'
        )

    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" font-size="16" text-anchor="middle">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" font-size="14" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="20" y="{HEIGHT // 2}" font-size="14" text-anchor="middle" '
            f'transform="rotate(-90 20 {HEIGHT // 2})">{ylabel}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
