"""Minimal data-faithful SVG charts: survival steps, lifelines, and the
density-change threshold chart. No styling ambitions, no dependencies.

Every text and line element is written by _text and _line, which fix the
order of its attributes: the committed golden bundles pin those bytes.
A chart is its elements' text, one line each, so no writer holds it whole.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import Iterable, Iterator, Mapping

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 150
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

# a change rate or threshold beyond this is drawn at the edge of the threshold
# chart, so its frame's span, headroom included, stays a finite float
Y_LIMIT = sys.float_info.max / 4

PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22", "#16a085")


def _escape(text: str) -> str:
    """Escape text for an XML text node (xml.sax.saxutils would import urllib)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _percent(value: float) -> str:
    """A finite value as a signed whole percentage; past where value * 100
    overflows a float, it is written from the exact integer instead."""
    return f"{value:+.0%}" if math.isfinite(value * 100) else f"{int(value) * 100:+d}%"


def _text(x, y, size: int, text: str, anchor: str | None = None, extra: str = "") -> str:
    """A sans-serif text element; extra is further attributes, each with its leading space."""
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    font = f'font-family="sans-serif" font-size="{size}"'
    return f'<text x="{x}" y="{y}"{anchored} {font}{extra}>{_escape(text)}</text>'


def _line(x1, y1, x2, y2, stroke: str, width: int = 1, extra: str = "") -> str:
    """A line element; extra is further attributes, each with its leading space."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"{extra}/>'


class _Frame:
    """Maps data coordinates into the plot rectangle (x from 0, y growing
    upward); a zero span is drawn as a span of 1."""

    def __init__(self, x_max, y_min, y_max):
        self.y_min, self.y_max = y_min, y_max
        self.x_span = x_max or 1.0
        self.y_span = (y_max - y_min) or 1.0

    def px(self, x: float) -> float:
        return MARGIN_LEFT + x / self.x_span * PLOT_W

    def py(self, y: float) -> float:
        return MARGIN_TOP + (self.y_max - y) / self.y_span * PLOT_H


def _document(title: str, *body: Iterable[str]) -> Iterator[str]:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<title>{_escape(title)}</title>",
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(WIDTH // 2, 22, 15, title, "middle"),
    ]
    for part in chain(head, *body, ["</svg>"]):
        yield part + "\n"


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    y_mid = (y0 + y1) // 2
    out = [
        _line(x0, y0, x1, y0, "#333333"),
        _line(x0, y0, x0, y1, "#333333"),
        _text((x0 + x1) // 2, HEIGHT - 10, 12, x_label, "middle"),
        _text(16, y_mid, 12, y_label, "middle", f' transform="rotate(-90 16 {y_mid})"'),
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = frac * frame.x_span
        yv = frame.y_min + frac * frame.y_span
        out.append(_text(_fmt(frame.px(xv)), y0 + 16, 10, _fmt(xv), "middle"))
        out.append(_text(x0 - 6, _fmt(frame.py(yv) + 3), 10, _fmt(yv), "end"))
    return out


def _legend(labels_colors: list[tuple[str, str]]) -> list[str]:
    out = []
    x = WIDTH - MARGIN_RIGHT + 12
    for i, (label, color) in enumerate(labels_colors):
        y = MARGIN_TOP + 14 + 18 * i
        out.append(_line(x, y, x + 18, y, color, 2))
        out.append(_text(x + 24, y + 4, 11, label))
    return out


def step_chart(curves: Mapping[str, Iterable], title: str) -> Iterator[str]:
    """Right-continuous step plot of each label's curve, whose points have a
    time_days and a survival; each curve starts at (0, 1)."""
    frame = _Frame(max((p.time_days for curve in curves.values() for p in curve), default=0.0), 0.0, 1.0)
    body = _axes(frame, "days", "survival probability")
    legend = []
    for i, (label, curve) in enumerate(curves.items()):
        color = PALETTE[i % len(PALETTE)]
        legend.append((label, color))
        d = [f"M {_fmt(frame.px(0.0))} {_fmt(frame.py(1.0))}"]
        level = 1.0
        for p in curve:
            d.append(f"H {_fmt(frame.px(p.time_days))}")
            if p.survival != level:
                d.append(f"V {_fmt(frame.py(p.survival))}")
                level = p.survival
        body.append(f'<path d="{" ".join(d)}" fill="none" stroke="{color}" stroke-width="2"/>')
    body.extend(_legend(legend))
    return _document(title, body)


def lifeline_chart(segments: list[tuple[float, float, bool]], title: str) -> Iterator[str]:
    """One horizontal segment per instance: (start, end, still_open)."""
    frame = _Frame(max((end for _, end, _ in segments), default=0.0), 0.0, float(max(len(segments), 1)))
    axes = _axes(frame, "days since first observation", "instance")
    legend = _legend([("open at study end", "#1b6ca8"), ("removed", "#c0392b")])
    return _document(title, axes, _lifelines(frame, segments), legend)


def _lifelines(frame: _Frame, segments: list[tuple[float, float, bool]]) -> Iterator[str]:
    for row, (start, end, still_open) in enumerate(segments):
        y = _fmt(frame.py(row + 0.5))
        yield _line(_fmt(frame.px(start)), y, _fmt(frame.px(end)), y, "#1b6ca8" if still_open else "#c0392b")


def threshold_chart(rates: list[float | None], thresholds: tuple[float, ...], title: str) -> Iterator[str]:
    """Line chart of a change-rate series over the version index, with a dashed
    guide at each threshold. A None rate (the first version's) is left out of
    the line; an infinite one, or one beyond Y_LIMIT, is drawn clipped to the
    frame."""
    points = [(x, y) for x, y in enumerate(rates) if y is not None]
    finite = [y for _, y in points if math.isfinite(y)]
    infinite = [x for x, y in points if math.isinf(y)]
    y_lo = max(min([-1.0, *finite, *thresholds]), -Y_LIMIT)
    y_hi = min(max([1.5, *finite, *thresholds]), Y_LIMIT)
    if infinite:
        y_hi = max(y_hi, 2.0) * 1.25
    frame = _Frame(len(rates) - 1, y_lo, y_hi)
    body = _axes(frame, "version index", "density change rate")
    for value in thresholds:
        y = frame.py(min(max(value, y_lo), y_hi))
        dashed = ' stroke-dasharray="5 4"'
        body.append(_line(MARGIN_LEFT, _fmt(y), WIDTH - MARGIN_RIGHT, _fmt(y), "#999999", extra=dashed))
        body.append(_text(WIDTH - MARGIN_RIGHT - 4, _fmt(y - 4), 10, _percent(value), "end", ' fill="#666666"'))
    if points:
        path = " L ".join(f"{_fmt(frame.px(x))} {_fmt(frame.py(min(y, y_hi)))}" for x, y in points)
        body.append(f'<path d="M {path}" fill="none" stroke="#1b6ca8" stroke-width="2"/>')
    for x in infinite:
        body.append(_text(_fmt(frame.px(x)), MARGIN_TOP + 12, 10, "inf", "middle", ' fill="#c0392b"'))
    return _document(title, body)
