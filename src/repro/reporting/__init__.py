"""Plain-text rendering of tables and figure series.

The benchmark harness prints every reproduced table/figure as ASCII so the
paper-vs-measured comparison is visible in CI logs without plotting
dependencies.
"""

from repro.reporting.tables import Table
from repro.reporting.figures import AsciiChart, Series

__all__ = ["Table", "AsciiChart", "Series"]
