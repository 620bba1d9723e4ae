"""The five cross-channel units (gold boxes in Figure 7).

These units operate across all 16 Spmem banks collectively, executing
CISC-like instructions whose runtime depends on operand length — the
paper names them by function; we model the canonical embedding pipeline:

  sort -> unique (dedup) -> partition (by destination chip) ->
  segment-sum (combiner) -> sequence (CISC issue)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CrossChannelUnits:
    """Data-dependent timing of the cross-channel pipeline."""

    clock_hz: float = 1050e6
    sort_throughput: float = 16.0       # keys/cycle (bitonic, banked)
    unique_throughput: float = 16.0     # keys/cycle
    partition_throughput: float = 16.0  # keys/cycle
    segment_sum_lanes: int = 128        # elements/cycle across banks
    sequencer_cycles_per_instruction: float = 64.0

    def sort_time(self, num_keys: int) -> float:
        """Banked bitonic sort: n log n / throughput."""
        if num_keys < 0:
            raise ConfigurationError("num_keys must be >= 0")
        if num_keys <= 1:
            return 0.0
        cycles = num_keys * math.log2(num_keys) / self.sort_throughput
        return cycles / self.clock_hz

    def unique_time(self, num_keys: int) -> float:
        """Linear scan over sorted keys."""
        return max(num_keys, 0) / self.unique_throughput / self.clock_hz

    def partition_time(self, num_keys: int) -> float:
        """Bucket keys by destination chip."""
        return max(num_keys, 0) / self.partition_throughput / self.clock_hz

    def dedup_pipeline_time(self, num_keys: int) -> float:
        """sort + unique + partition for one batch of keys."""
        return (self.sort_time(num_keys) + self.unique_time(num_keys)
                + self.partition_time(num_keys))
