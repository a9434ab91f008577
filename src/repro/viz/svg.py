"""A small dependency-free SVG drawing layer.

matplotlib is not available in this environment, so figures are emitted
as hand-built SVG.  The layer covers exactly what the paper's figures
need: line plots (Figs 4, 7), step plots (Fig 7's staircases), filled
histograms (Figs 6, 8), heat strips (Fig 3's shaded traces) and stacked
area plots (Fig 5), with axes, ticks, titles and simple legends.

Everything works in *data coordinates*: a :class:`Plot` owns the data→
pixel transform; marks clip to the plot area.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: A categorical palette (colorblind-safe Okabe-Ito).
PALETTE = (
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#009E73",  # green
    "#CC79A7",  # purple
    "#E69F00",  # orange
    "#56B4E9",  # sky
    "#F0E442",  # yellow
    "#000000",  # black
)


def _fmt(value: float) -> str:
    """Compact numeric formatting for SVG attributes."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / max(n - 1, 1)
    magnitude = 10 ** np.floor(np.log10(raw_step))
    for multiplier in (1, 2, 2.5, 5, 10):
        step = multiplier * magnitude
        if step >= raw_step:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(float(t))
        t += step
    return ticks or [lo]


@dataclass
class Axis:
    """One axis: data range plus an optional label."""

    lo: float
    hi: float
    label: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError(f"axis range must be finite: [{self.lo}, {self.hi}]")
        if self.hi <= self.lo:
            self.hi = self.lo + 1.0

    def scale(self, values: np.ndarray, px_lo: float, px_hi: float) -> np.ndarray:
        """Map data values into pixel coordinates."""
        values = np.asarray(values, dtype=np.float64)
        fraction = (values - self.lo) / (self.hi - self.lo)
        return px_lo + fraction * (px_hi - px_lo)


class Plot:
    """One SVG chart with axes and a list of marks."""

    def __init__(
        self,
        x: Axis,
        y: Axis,
        width: int = 560,
        height: int = 220,
        title: str = "",
        margin: tuple[int, int, int, int] = (34, 14, 30, 58),
    ):
        if width < 100 or height < 60:
            raise ValueError("plot too small to render")
        self.x = x
        self.y = y
        self.width = width
        self.height = height
        self.title = title
        self.margin_top, self.margin_right, self.margin_bottom, self.margin_left = margin
        self._body: list[str] = []
        self._legend: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------

    @property
    def _plot_left(self) -> float:
        return self.margin_left

    @property
    def _plot_right(self) -> float:
        return self.width - self.margin_right

    @property
    def _plot_top(self) -> float:
        return self.margin_top

    @property
    def _plot_bottom(self) -> float:
        return self.height - self.margin_bottom

    def _px(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.x.scale(xs, self._plot_left, self._plot_right),
            self.y.scale(ys, self._plot_bottom, self._plot_top),
        )

    # ------------------------------------------------------------------
    # marks
    # ------------------------------------------------------------------

    def line(self, xs, ys, color: str = PALETTE[0], width: float = 1.4,
             label: str = "", dashed: bool = False) -> "Plot":
        """Polyline through the points."""
        px, py = self._px(xs, ys)
        if len(px) < 2:
            raise ValueError("a line needs at least two points")
        points = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        dash = ' stroke-dasharray="5,3"' if dashed else ""
        self._body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash} clip-path="url(#plotclip)"/>'
        )
        if label:
            self._legend.append((label, color))
        return self

    def steps(self, xs, ys, color: str = PALETTE[0], width: float = 1.4,
              label: str = "") -> "Plot":
        """Staircase (post-step) line — Fig 7's timer outputs."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if len(xs) < 2:
            raise ValueError("steps need at least two points")
        step_x = np.repeat(xs, 2)[1:]
        step_y = np.repeat(ys, 2)[:-1]
        return self.line(step_x, step_y, color=color, width=width, label=label)

    def bars(self, edges, counts, color: str = PALETTE[0], label: str = "") -> "Plot":
        """Histogram bars from bin edges + counts (Figs 6, 8)."""
        edges = np.asarray(edges, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        if len(edges) != len(counts) + 1:
            raise ValueError("need len(edges) == len(counts) + 1")
        zero_px = self.y.scale(np.array([max(self.y.lo, 0.0)]),
                               self._plot_bottom, self._plot_top)[0]
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            if count <= 0:
                continue
            (x0, x1), (y1,) = self._px([left, right], [count])[0], (
                self._px([left], [count])[1]
            )
            top = y1
            self._body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" '
                f'width="{_fmt(max(x1 - x0 - 0.5, 0.5))}" '
                f'height="{_fmt(max(zero_px - top, 0.0))}" fill="{color}" '
                f'fill-opacity="0.75" clip-path="url(#plotclip)"/>'
            )
        if label:
            self._legend.append((label, color))
        return self

    def area(self, xs, lower, upper, color: str = PALETTE[0],
             opacity: float = 0.5, label: str = "") -> "Plot":
        """Filled band between two curves (Fig 5's stacked areas)."""
        xs = np.asarray(xs, dtype=np.float64)
        lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), xs.shape)
        upper = np.asarray(upper, dtype=np.float64)
        px, py_hi = self._px(xs, upper)
        _, py_lo = self._px(xs, lower)
        forward = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py_hi))
        backward = " ".join(
            f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px[::-1], py_lo[::-1])
        )
        self._body.append(
            f'<polygon points="{forward} {backward}" fill="{color}" '
            f'fill-opacity="{_fmt(opacity)}" stroke="none" clip-path="url(#plotclip)"/>'
        )
        if label:
            self._legend.append((label, color))
        return self

    def heat_strip(self, values, y0: float, y1: float, cmap: str = "blues") -> "Plot":
        """A shaded horizontal strip — one Fig 3 trace row.

        ``values`` are normalized 0..1; darker cells mean *smaller*
        values (less throughput = more interrupt time), matching the
        paper's shading.
        """
        values = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
        if len(values) == 0:
            raise ValueError("heat strip needs values")
        n = len(values)
        xs = np.linspace(self.x.lo, self.x.hi, n + 1)
        px = self.x.scale(xs, self._plot_left, self._plot_right)
        (py0,) = self.y.scale(np.array([y0]), self._plot_bottom, self._plot_top)
        (py1,) = self.y.scale(np.array([y1]), self._plot_bottom, self._plot_top)
        top, bottom = min(py0, py1), max(py0, py1)
        for i, value in enumerate(values):
            shade = int(235 * value)  # 0 -> black, 1 -> near-white
            color = (
                f"rgb({shade},{shade},255)" if cmap == "blues"
                else f"rgb({shade},{shade},{shade})"
            )
            self._body.append(
                f'<rect x="{_fmt(px[i])}" y="{_fmt(top)}" '
                f'width="{_fmt(px[i + 1] - px[i] + 0.3)}" '
                f'height="{_fmt(bottom - top)}" fill="{color}"/>'
            )
        return self

    def text(self, x: float, y: float, content: str, size: int = 10,
             color: str = "#333") -> "Plot":
        """Annotation at data coordinates."""
        px, py = self._px([x], [y])
        self._body.append(
            f'<text x="{_fmt(px[0])}" y="{_fmt(py[0])}" font-size="{size}" '
            f'fill="{color}">{html.escape(content)}</text>'
        )
        return self

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def _axes_svg(self) -> list[str]:
        parts = [
            f'<rect x="{_fmt(self._plot_left)}" y="{_fmt(self._plot_top)}" '
            f'width="{_fmt(self._plot_right - self._plot_left)}" '
            f'height="{_fmt(self._plot_bottom - self._plot_top)}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        ]
        for tick in _nice_ticks(self.x.lo, self.x.hi):
            (px,) = self.x.scale(np.array([tick]), self._plot_left, self._plot_right)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(self._plot_bottom)}" '
                f'x2="{_fmt(px)}" y2="{_fmt(self._plot_bottom + 4)}" stroke="#444"/>'
                f'<text x="{_fmt(px)}" y="{_fmt(self._plot_bottom + 16)}" '
                f'font-size="9" text-anchor="middle" fill="#333">{_fmt(tick)}</text>'
            )
        for tick in _nice_ticks(self.y.lo, self.y.hi):
            (py,) = self.y.scale(np.array([tick]), self._plot_bottom, self._plot_top)
            parts.append(
                f'<line x1="{_fmt(self._plot_left - 4)}" y1="{_fmt(py)}" '
                f'x2="{_fmt(self._plot_left)}" y2="{_fmt(py)}" stroke="#444"/>'
                f'<text x="{_fmt(self._plot_left - 7)}" y="{_fmt(py + 3)}" '
                f'font-size="9" text-anchor="end" fill="#333">{_fmt(tick)}</text>'
            )
        if self.x.label:
            parts.append(
                f'<text x="{_fmt((self._plot_left + self._plot_right) / 2)}" '
                f'y="{_fmt(self.height - 6)}" font-size="10" text-anchor="middle" '
                f'fill="#111">{html.escape(self.x.label)}</text>'
            )
        if self.y.label:
            cx, cy = 13, (self._plot_top + self._plot_bottom) / 2
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="10" '
                f'text-anchor="middle" fill="#111" '
                f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
                f"{html.escape(self.y.label)}</text>"
            )
        if self.title:
            parts.append(
                f'<text x="{_fmt(self._plot_left)}" y="{_fmt(self._plot_top - 8)}" '
                f'font-size="11" font-weight="bold" fill="#111">'
                f"{html.escape(self.title)}</text>"
            )
        return parts

    def _legend_svg(self) -> list[str]:
        parts = []
        x = self._plot_right - 8
        y = self._plot_top + 12
        for label, color in reversed(self._legend):
            parts.append(
                f'<rect x="{_fmt(x - 10)}" y="{_fmt(y - 8)}" width="10" height="8" '
                f'fill="{color}"/>'
                f'<text x="{_fmt(x - 15)}" y="{_fmt(y)}" font-size="9" '
                f'text-anchor="end" fill="#333">{html.escape(label)}</text>'
            )
            y += 13
        return parts

    def render(self) -> str:
        """The complete SVG document."""
        clip = (
            f'<clipPath id="plotclip"><rect x="{_fmt(self._plot_left)}" '
            f'y="{_fmt(self._plot_top)}" '
            f'width="{_fmt(self._plot_right - self._plot_left)}" '
            f'height="{_fmt(self._plot_bottom - self._plot_top)}"/></clipPath>'
        )
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            'font-family="Helvetica,Arial,sans-serif">',
            f"<defs>{clip}</defs>",
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            *self._body,
            *self._axes_svg(),
            *self._legend_svg(),
            "</svg>",
        ]
        return "\n".join(parts)

    def save(self, path) -> None:
        """Write the SVG to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.render())


def stack_plots(plots: Sequence[Plot], title: str = "") -> str:
    """Stack several rendered plots vertically into one SVG document."""
    if not plots:
        raise ValueError("nothing to stack")
    width = max(p.width for p in plots)
    offset = 24 if title else 0
    height = sum(p.height for p in plots) + offset
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="16" font-size="13" font-weight="bold" '
            f'text-anchor="middle" fill="#111">{html.escape(title)}</text>'
        )
    y = offset
    for plot in plots:
        inner = plot.render()
        # Strip the outer <svg> wrapper and re-embed translated.
        body = inner.split("\n", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(f'<g transform="translate(0 {y})">{body}</g>')
        y += plot.height
    parts.append("</svg>")
    return "\n".join(parts)
