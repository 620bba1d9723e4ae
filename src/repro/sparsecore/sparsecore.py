"""The SparseCore: 16 tiles + cross-channel units (Figure 7).

A "dataflow" sea-of-cores: data flows from HBM through Fetch units into
Spmem, through the scVPUs and cross-channel units, and back out through
Flush units.  This class aggregates tile/cross-channel timing into
per-batch embedding phase times for one chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sparsecore.crosschannel import CrossChannelUnits
from repro.sparsecore.tile import SCTile
from repro.sparsecore.timing import SCTimingParams


@dataclass
class SparseCore:
    """One chip's SparseCore complex (4 SCs x 16 tiles on TPU v4)."""

    params: SCTimingParams = field(default_factory=SCTimingParams)

    def __post_init__(self) -> None:
        per_tile_bw = (self.params.hbm_bandwidth
                       / self.params.total_tiles)
        self.tile = SCTile(
            clock_hz=self.params.clock_hz,
            lanes=self.params.lanes_per_tile,
            hbm_channel_bandwidth=per_tile_bw,
            fetch_cycles_per_row=self.params.fetch_cycles_per_row,
        )
        self.crosschannel = CrossChannelUnits(clock_hz=self.params.clock_hz)

    def gather_time(self, rows: int, row_bytes: float) -> float:
        """Gather `rows` embedding rows, striped over every tile.

        HBM-stream and issue-rate limited, whichever is slower, derated by
        the share of HBM the TensorCores leave to embeddings.
        """
        if rows < 0:
            raise ConfigurationError("rows must be >= 0")
        tiles = self.params.total_tiles
        rows_per_tile = rows / tiles
        issue = rows_per_tile * self.tile.fetch_cycles_per_row / self.tile.clock_hz
        stream = (rows * row_bytes
                  / (self.params.gather_bandwidth))
        return max(issue, stream)

    def combine_time(self, rows: int, row_elements: int) -> float:
        """scVPU combining across all tiles."""
        per_tile_rows = rows / self.params.total_tiles
        return self.tile.combine_time(int(per_tile_rows) + 1, row_elements)

    def flush_time(self, rows: int, row_bytes: float) -> float:
        """Backward-pass parameter write-back."""
        return self.gather_time(rows, row_bytes)

    def dedup_time(self, num_keys: int) -> float:
        """Cross-channel dedup pipeline, parallel across SCs."""
        per_sc = num_keys / self.params.sparsecores_per_chip
        return self.crosschannel.dedup_pipeline_time(int(per_sc) + 1)

    def overhead_time(self, num_tables: int) -> float:
        """Fixed per-step cost: sequencer CISC generation + latency floor."""
        return (self.params.step_overhead
                + num_tables * self.params.instruction_overhead)
