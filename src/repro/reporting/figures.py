"""ASCII renditions of the paper's figures (series and log-log charts)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Series:
    """A named (x, y) series for a figure."""

    name: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series '{self.name}': {len(self.xs)} xs vs {len(self.ys)} ys")


@dataclass
class AsciiChart:
    """Renders series as a column-aligned listing plus a coarse dot plot.

    The dot plot intentionally stays crude; the numeric listing is the
    primary artifact.
    """

    title: str
    x_label: str = "x"
    y_label: str = "y"
    log_x: bool = False
    log_y: bool = False
    width: int = 60
    height: int = 16
    series: list[Series] = field(default_factory=list)

    def add(self, series: Series) -> None:
        """Attach one series to the chart."""
        self.series.append(series)

    def _transform(self, value: float, log: bool) -> float:
        if log:
            if value <= 0:
                raise ValueError("log-scale axis requires positive values")
            return math.log10(value)
        return value

    def render_listing(self) -> str:
        """Numeric listing: one block per series."""
        lines = [self.title]
        for series in self.series:
            lines.append(f"  [{series.name}]")
            for x, y in zip(series.xs, series.ys):
                lines.append(f"    {self.x_label}={x:<12.6g} {self.y_label}={y:.6g}")
        return "\n".join(lines)

    def render_plot(self) -> str:
        """Dot plot on a character grid, all series overlaid."""
        points: list[tuple[float, float, str]] = []
        markers = "ox+*#@%&"
        for idx, series in enumerate(self.series):
            marker = markers[idx % len(markers)]
            for x, y in zip(series.xs, series.ys):
                points.append((self._transform(x, self.log_x),
                               self._transform(y, self.log_y), marker))
        if not points:
            return f"{self.title}\n(empty)"
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        grid = [[" "] * self.width for _ in range(self.height)]
        for x, y, marker in points:
            col = round((x - x_lo) / x_span * (self.width - 1))
            row = round((y - y_lo) / y_span * (self.height - 1))
            grid[self.height - 1 - row][col] = marker
        legend = "  ".join(f"{markers[i % len(markers)]}={s.name}"
                           for i, s in enumerate(self.series))
        body = "\n".join("|" + "".join(row) for row in grid)
        scale = (f"x: {self.x_label} [{10**x_lo if self.log_x else x_lo:.4g}"
                 f" .. {10**x_hi if self.log_x else x_hi:.4g}]"
                 f"  y: {self.y_label} [{10**y_lo if self.log_y else y_lo:.4g}"
                 f" .. {10**y_hi if self.log_y else y_hi:.4g}]")
        return "\n".join([self.title, body, scale, legend])

    def render(self) -> str:
        """Full rendering: plot followed by the numeric listing."""
        return self.render_plot() + "\n" + self.render_listing()
