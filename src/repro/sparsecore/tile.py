"""One SparseCore compute tile: Fetch unit, scVPU, Flush unit (Figure 7).

Each tile owns an HBM channel and a slice of Spmem.  The Fetch unit reads
activations/parameters from HBM into Spmem; the 8-wide scVPU combines
vectors; the Flush unit writes updated parameters back on the backward
pass.  Times are data-dependent (variable-length CISC operands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SCTile:
    """Timing model of one tile."""

    clock_hz: float = 1050e6
    lanes: int = 8
    hbm_channel_bandwidth: float = 75e9   # 1200 GB/s / 16 channels
    fetch_cycles_per_row: float = 4.0

    def fetch_time(self, rows: int, row_bytes: float) -> float:
        """Seconds for the Fetch unit to gather `rows` of `row_bytes`."""
        if rows < 0 or row_bytes < 0:
            raise ConfigurationError("rows/row_bytes must be >= 0")
        issue = rows * self.fetch_cycles_per_row / self.clock_hz
        stream = rows * row_bytes / self.hbm_channel_bandwidth
        return max(issue, stream)

    def combine_time(self, rows: int, row_elements: int) -> float:
        """Seconds for the scVPU to sum `rows` vectors of `row_elements`."""
        if rows < 0 or row_elements < 0:
            raise ConfigurationError("rows/row_elements must be >= 0")
        cycles = rows * math.ceil(row_elements / self.lanes)
        return cycles / self.clock_hz

    def flush_time(self, rows: int, row_bytes: float) -> float:
        """Seconds for the Flush unit to write updated rows back."""
        return self.fetch_time(rows, row_bytes)
