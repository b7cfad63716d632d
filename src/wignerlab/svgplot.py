"""Minimal standalone SVG line plots for result tables.

The writer emits a self-contained SVG document with no external assets.
Series are drawn as polylines with optional error bars, an optional dashed
horizontal reference line, and a legend.  The x axis switches to a log
scale when the data span more than two decades.

Every element but the root ``<svg>`` is written by one element writer,
``_tag``, which owns the formatting rules: attributes in the order given,
with ``_`` in a keyword written as ``-``; floats to one decimal; text
content escaped by a local ``_escape``.  Attribute values are numbers,
colours and fixed strings, and are written unescaped.  A plot is made from
float arithmetic and string formatting alone, so its bytes are the same for
identical inputs on every build (``tests/test_plot_digest.py`` pins them),
and the module needs only ``math`` and ``dataclasses`` from the standard
library.
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


def _tag(name: str, text: str = None, **attrs) -> str:
    """One SVG element: attributes in the order given, ``_`` in a keyword
    written as ``-``, floats to one decimal, and ``text``, if any, escaped
    as content."""
    head = name
    for key, value in attrs.items():
        value = f"{value:.1f}" if isinstance(value, float) else value
        head += f' {key.replace("_", "-")}="{value}"'
    return f"<{head}/>" if text is None else f"<{head}>{_escape(text)}</{name}>"


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
        all_y += _finite([yv - ev for yv, ev in zip(s.y, s.yerr)])
        all_y += _finite([yv + ev for yv, ev in zip(s.y, s.yerr)])
    if not all_x or not all_y:
        raise DomainError("nothing to plot: series contain no finite points")
    reference = float(reference) if reference is not None and math.isfinite(reference) else None
    if reference is not None:
        all_y.append(reference)

    x_lo, x_hi = min(all_x), max(all_x)
    log_x = x_lo > 0.0 and x_hi / x_lo > 100.0
    if log_x:
        x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        pad = 0.5 if y_lo == 0 else abs(y_lo) * 0.1
    else:
        pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x_axis = _MARGIN_T + plot_h

    def px(v: float) -> float:
        t = math.log10(v) if log_x else v
        return _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    # x is log only when the smallest finite x is > 0, so no finite point
    # needs a sign check
    def drawable(xv: float, yv: float) -> bool:
        return math.isfinite(xv) and math.isfinite(yv)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _tag("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _tag("rect", x=_MARGIN_L, y=_MARGIN_T, width=plot_w, height=plot_h,
             fill="none", stroke="#333", stroke_width=1),
    ]
    cy = _MARGIN_T + plot_h / 2
    for text, x, y, size, extra in (
        (title, _WIDTH / 2, _MARGIN_T - 14, 16, {}),
        (x_label, _MARGIN_L + plot_w / 2, _HEIGHT - 12, 13, {}),
        (y_label, 18, cy, 13, {"transform": f"rotate(-90 18 {cy:.1f})"}),
    ):
        if text:
            parts.append(_tag("text", text, x=x, y=y, text_anchor="middle",
                              font_family="sans-serif", font_size=size, **extra))

    # axis ticks
    if log_x:
        x_ticks = [10.0**d for d in range(math.floor(x_lo), math.ceil(x_hi) + 1) if x_lo <= d <= x_hi]
    else:
        x_ticks = _ticks(x_lo, x_hi)
    for t in x_ticks:
        parts += [
            _tag("line", x1=px(t), y1=x_axis, x2=px(t), y2=x_axis + 5, stroke="#333"),
            _tag("text", _fmt_tick(t), x=px(t), y=x_axis + 20, text_anchor="middle",
                 font_family="sans-serif", font_size=11),
        ]
    for t in _ticks(y_lo, y_hi):
        parts += [
            _tag("line", x1=_MARGIN_L - 5, y1=py(t), x2=_MARGIN_L, y2=py(t), stroke="#333"),
            _tag("text", _fmt_tick(t), x=_MARGIN_L - 9, y=py(t) + 4, text_anchor="end",
                 font_family="sans-serif", font_size=11),
        ]

    if reference is not None:
        parts.append(_tag("line", x1=_MARGIN_L, y1=py(reference), x2=_MARGIN_L + plot_w, y2=py(reference),
                          stroke="#777", stroke_width=1, stroke_dasharray="6,4"))

    legend = []
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        for xv, yv, ev in zip(s.x, s.y, s.yerr):
            if drawable(xv, yv) and math.isfinite(ev):
                parts.append(_tag("line", x1=px(xv), y1=py(yv - ev), x2=px(xv), y2=py(yv + ev),
                                  stroke=color, stroke_width=1))
        pts = [(px(xv), py(yv)) for xv, yv in zip(s.x, s.y) if drawable(xv, yv)]
        if len(pts) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(_tag("polyline", points=path, fill="none", stroke=color, stroke_width="1.5"))
        parts += [_tag("circle", cx=x, cy=y, r=3, fill=color) for x, y in pts]
        ly = _MARGIN_T + 10 + 18 * idx
        legend += [
            _tag("line", x1=_MARGIN_L + plot_w - 150, y1=ly, x2=_MARGIN_L + plot_w - 126, y2=ly,
                 stroke=color, stroke_width=2),
            _tag("text", s.label, x=_MARGIN_L + plot_w - 120, y=ly + 4,
                 font_family="sans-serif", font_size=12),
        ]

    return "\n".join(parts + legend + ["</svg>"]) + "\n"
