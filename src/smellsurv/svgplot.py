"""Minimal data-faithful SVG charts: survival steps, lifelines, and the
density-change threshold chart. No styling ambitions, no dependencies."""

from __future__ import annotations

import math

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 150
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22", "#16a085")


def _escape(text: str) -> str:
    """Escape text for an XML text node (xml.sax.saxutils would import urllib)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Frame:
    """Maps data coordinates into the plot rectangle (x from 0, y growing
    upward); a zero span is drawn as a span of 1."""

    def __init__(self, x_max, y_min, y_max):
        self.y_min, self.y_max = y_min, y_max
        self.x_span = x_max or 1.0
        self.y_span = (y_max - y_min) or 1.0
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(self, x: float) -> float:
        return MARGIN_LEFT + x / self.x_span * self.plot_w

    def py(self, y: float) -> float:
        return MARGIN_TOP + (self.y_max - y) / self.y_span * self.plot_h


def _document(body: list[str], title: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{_escape(title)}</title>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{_escape(title)}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    out = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333" stroke-width="1"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>',
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {(y0 + y1) // 2})">{_escape(y_label)}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = frac * frame.x_span
        yv = frame.y_min + frac * frame.y_span
        out.append(
            f'<text x="{_fmt(frame.px(xv))}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>'
        )
        out.append(
            f'<text x="{x0 - 6}" y="{_fmt(frame.py(yv) + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>'
        )
    return out


def _legend(labels_colors: list[tuple[str, str]]) -> list[str]:
    out = []
    x = WIDTH - MARGIN_RIGHT + 12
    for i, (label, color) in enumerate(labels_colors):
        y = MARGIN_TOP + 14 + 18 * i
        out.append(f'<line x1="{x}" y1="{y}" x2="{x + 18}" y2="{y}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{x + 24}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    return out


def step_chart(series: list[tuple[str, list[tuple[float, float]]]], title: str) -> str:
    """Right-continuous step plot; each series starts at (0, 1)."""
    frame = _Frame(max((x for _, pts in series for x, _ in pts), default=0.0), 0.0, 1.0)
    body = _axes(frame, "days", "survival probability")
    legend = []
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        legend.append((label, color))
        d = [f"M {_fmt(frame.px(0.0))} {_fmt(frame.py(1.0))}"]
        level = 1.0
        for x, y in pts:
            d.append(f"H {_fmt(frame.px(x))}")
            if y != level:
                d.append(f"V {_fmt(frame.py(y))}")
                level = y
        body.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    body.extend(_legend(legend))
    return _document(body, title)


def lifeline_chart(segments: list[tuple[float, float, bool]], title: str) -> str:
    """One horizontal segment per instance: (start, end, still_open)."""
    frame = _Frame(max((end for _, end, _ in segments), default=0.0), 0.0, float(max(len(segments), 1)))
    body = _axes(frame, "days since first observation", "instance")
    for row, (start, end, still_open) in enumerate(segments):
        y = _fmt(frame.py(row + 0.5))
        color = "#1b6ca8" if still_open else "#c0392b"
        body.append(
            f'<line x1="{_fmt(frame.px(start))}" y1="{y}" x2="{_fmt(frame.px(end))}" y2="{y}" '
            f'stroke="{color}" stroke-width="1"/>'
        )
    body.extend(_legend([("open at study end", "#1b6ca8"), ("removed", "#c0392b")]))
    return _document(body, title)


def threshold_chart(rates: list[float | None], thresholds: tuple[float, ...], title: str) -> str:
    """Line chart of a change-rate series over the version index, with a dashed
    guide at each threshold. A None rate (the first version's) is left out of
    the line; an infinite one is drawn clipped to the top of the frame."""
    points = [(x, y) for x, y in enumerate(rates) if y is not None]
    finite = [y for _, y in points if math.isfinite(y)]
    infinite = [x for x, y in points if math.isinf(y)]
    y_lo = min([-1.0, *finite, *thresholds])
    y_hi = max([1.5, *finite, *thresholds])
    if infinite:
        y_hi = max(y_hi, 2.0) * 1.25
    frame = _Frame(len(rates) - 1, y_lo, y_hi)
    body = _axes(frame, "version index", "density change rate")
    for value in thresholds:
        y = _fmt(frame.py(value))
        body.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y}" x2="{WIDTH - MARGIN_RIGHT}" y2="{y}" '
            f'stroke="#999999" stroke-width="1" stroke-dasharray="5 4"/>'
        )
        body.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 4}" y="{_fmt(frame.py(value) - 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#666666">{value:+.0%}</text>'
        )
    if points:
        path = " L ".join(f"{_fmt(frame.px(x))} {_fmt(frame.py(min(y, y_hi)))}" for x, y in points)
        body.append(f'<path d="M {path}" fill="none" stroke="#1b6ca8" stroke-width="2"/>')
    for x in infinite:
        body.append(
            f'<text x="{_fmt(frame.px(x))}" y="{MARGIN_TOP + 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="#c0392b">inf</text>'
        )
    return _document(body, title)
