"""Minimal standalone SVG line plots for result tables.

The writer emits a self-contained SVG document with no external assets,
so output files are byte-stable for identical inputs.  Series are drawn
as polylines with optional error bars, an optional dashed horizontal
reference line, and a legend.  The x axis switches to a log scale when
the data span more than two decades.  Text is escaped by a local
``_escape``, so the module needs only ``math`` and ``dataclasses`` from the
standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = ["Series", "render_plot"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    """One labelled curve: x, y, and optional symmetric error bars."""

    label: str
    x: list
    y: list
    yerr: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.x = [float(v) for v in self.x]
        self.y = [float(v) for v in self.y]
        self.yerr = [float(v) for v in self.yerr]
        if len(self.x) != len(self.y):
            raise DomainError(
                f"series {self.label!r} has {len(self.x)} x values but {len(self.y)} y values"
            )
        if self.yerr and len(self.yerr) != len(self.x):
            raise DomainError(
                f"series {self.label!r} has {len(self.yerr)} error bars for {len(self.x)} points"
            )


def _finite(values) -> list:
    return [v for v in values if math.isfinite(v)]


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _escape(text: str) -> str:
    """XML text escaping as ``xml.sax.saxutils.escape`` does it (``&`` first,
    then ``>`` and ``<``), without importing ``xml.sax``, whose ``saxutils``
    loads ``urllib.request`` and with it the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_plot(
    series: list,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    reference: float = None,
) -> str:
    """Render series to an SVG document string."""
    if not series:
        raise DomainError("nothing to plot: no series given")
    all_x = _finite([v for s in series for v in s.x])
    all_y = _finite([v for s in series for v in s.y])
    for s in series:
        if s.yerr:
            all_y.extend(_finite([yv - ev for yv, ev in zip(s.y, s.yerr)]))
            all_y.extend(_finite([yv + ev for yv, ev in zip(s.y, s.yerr)]))
    if not all_x or not all_y:
        raise DomainError("nothing to plot: series contain no finite points")
    if reference is not None and math.isfinite(reference):
        all_y.append(float(reference))

    x_lo, x_hi = min(all_x), max(all_x)
    log_x = x_lo > 0.0 and x_hi / x_lo > 100.0
    if log_x:
        x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = 0.5 if y_lo == 0 else abs(y_lo) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        t = math.log10(v) if log_x else v
        return _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]

    font = 'font-family="sans-serif"'
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN_T - 14}" text-anchor="middle" '
            f'{font} font-size="16">{_escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'{font} font-size="13">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 18, _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" {font} font-size="13" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>'
        )

    # axis ticks
    if log_x:
        lo_dec, hi_dec = math.floor(x_lo), math.ceil(x_hi)
        x_ticks = [10.0**d for d in range(int(lo_dec), int(hi_dec) + 1) if x_lo <= d <= x_hi]
    else:
        x_ticks = _ticks(x_lo, x_hi)
    for t in x_ticks:
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'{font} font-size="11">{_escape(_fmt_tick(t))}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'{font} font-size="11">{_escape(_fmt_tick(t))}</text>'
        )

    if reference is not None and math.isfinite(reference):
        y = py(float(reference))
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
            'stroke="#777" stroke-width="1" stroke-dasharray="6,4"/>'
        )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            (px(xv), py(yv))
            for xv, yv in zip(s.x, s.y)
            if math.isfinite(xv) and math.isfinite(yv) and (not log_x or xv > 0)
        ]
        if s.yerr:
            for (xv, yv, ev) in zip(s.x, s.y, s.yerr):
                if not (math.isfinite(xv) and math.isfinite(yv) and math.isfinite(ev)):
                    continue
                if log_x and xv <= 0:
                    continue
                x = px(xv)
                parts.append(
                    f'<line x1="{x:.1f}" y1="{py(yv - ev):.1f}" x2="{x:.1f}" '
                    f'y2="{py(yv + ev):.1f}" stroke="{color}" stroke-width="1"/>'
                )
        if len(pts) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')

    # legend
    ly = _MARGIN_T + 10
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 150}" y1="{ly}" x2="{_MARGIN_L + plot_w - 126}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 120}" y="{ly + 4}" {font} '
            f'font-size="12">{_escape(s.label)}</text>'
        )
        ly += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
