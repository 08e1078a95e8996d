"""ASCII rendering of roofline plots for terminal reports.

No plotting stack is assumed offline; every figure bench prints its series
as (a) a numeric table and (b) an ASCII log-log chart from this module, so
shapes (diagonal latency ceilings, the horizontal bandwidth ceiling, where
dots sit against them) are inspectable in the pytest output.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["ascii_loglog", "Series"]


class Series:
    """One plottable series: points plus a single-character marker."""

    def __init__(
        self, label: str, points: Sequence[tuple[float, float]], marker: str = "*"
    ):
        if len(marker) != 1:
            raise ValueError(f"marker must be one character, got {marker!r}")
        self.label = label
        self.points = [(float(x), float(y)) for x, y in points]
        self.marker = marker


def ascii_loglog(
    series: Sequence[Series],
    *,
    width: int = 72,
    height: int = 20,
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render series on a log-log grid of ``width`` x ``height`` characters."""
    pts = [(x, y) for s in series for x, y in s.points if x > 0 and y > 0]
    if not pts:
        raise ValueError("nothing to plot: no positive points")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 2, x_hi * 2
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 2, y_hi * 2
    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, ch: str) -> None:
        cx = int(round((math.log10(x) - lx_lo) / (lx_hi - lx_lo) * (width - 1)))
        cy = int(round((math.log10(y) - ly_lo) / (ly_hi - ly_lo) * (height - 1)))
        cx = min(max(cx, 0), width - 1)
        cy = min(max(cy, 0), height - 1)
        row = height - 1 - cy
        grid[row][cx] = ch

    for s in series:
        for x, y in s.points:
            if x > 0 and y > 0:
                place(x, y, s.marker)

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel} (log axis, {y_lo:.3g} .. {y_hi:.3g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {xlabel} (log axis, {x_lo:.3g} .. {x_hi:.3g})")
    legend = "  ".join(f"{s.marker}={s.label}" for s in series)
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
