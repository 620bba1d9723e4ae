"""Timing parameters for the SparseCore model.

Derived from Table 4 and Section 3.5: 16 tiles per SC, one HBM channel per
tile, an 8-wide scVPU per tile, 2.5 MiB Spmem per SC, 4 SCs per TPU v4
chip (2 on TPU v3).  Fixed per-step overheads (CISC instruction generation
on the core sequencer, HBM latency) are what cap MLPerf-DLRM scaling at
~128 chips (Section 7.9) and make bisection bandwidth matter less at 1024
chips (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB, MIB, US


@dataclass(frozen=True)
class SCTimingParams:
    """One chip's SparseCore complex, as timing coefficients."""

    sparsecores_per_chip: int = 4        # TPU v4 (TPU v3: 2)
    tiles_per_sparsecore: int = 16
    clock_hz: float = 1050e6             # TPU v4 (TPU v3: 940 MHz)
    hbm_bandwidth: float = 1200 * GB     # shared with the TensorCores
    # Achievable fraction of HBM bandwidth for short random gathers.  The
    # 3rd-generation SC in TPU v4 keeps "tens of thousands of outstanding
    # memory requests" (Section 8); earlier generations sustain far less
    # random-access efficiency.  This asymmetry, with the 2x SC count, is
    # what yields the DLRM speedups of Figures 9/12.
    hbm_embedding_share: float = 0.75
    spmem_per_sparsecore: float = 2.5 * MIB
    lanes_per_tile: int = 8              # 8-wide SIMD scVPU
    fetch_cycles_per_row: float = 4.0    # address gen + tag + issue
    instruction_overhead: float = 0.3 * US   # CISC gen per table per step
    step_overhead: float = 20 * US       # sequencer + HBM latency floor

    @property
    def total_tiles(self) -> int:
        """Tiles across the chip."""
        return self.sparsecores_per_chip * self.tiles_per_sparsecore

    @property
    def gather_bandwidth(self) -> float:
        """HBM bytes/second available to embedding gathers."""
        return self.hbm_bandwidth * self.hbm_embedding_share


TPUV4_SC = SCTimingParams()

# TPU v3's 2nd-generation SC: half the SparseCores, a slower clock, far
# less random-gather concurrency, and an order-of-magnitude slower CISC
# sequencer (the v4 SC pipelines instruction generation across 4 SCs).
# These four constants carry the paper's DLRM speedups (Figures 9/12).
TPUV3_SC = SCTimingParams(
    sparsecores_per_chip=2,
    tiles_per_sparsecore=16,
    clock_hz=940e6,
    hbm_bandwidth=900 * GB,
    hbm_embedding_share=0.28,
    spmem_per_sparsecore=2.5 * MIB,
    fetch_cycles_per_row=6.0,
    instruction_overhead=3.2 * US,
    step_overhead=30 * US,
)
