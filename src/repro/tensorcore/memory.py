"""The TPU v4 on-chip memory hierarchy: HBM, CMEM, VMEM.

TPU v4 adds the 128 MiB CMEM scratchpad missing from TPU v3; Figure 13
attributes a 1.2x average (2x for RNN1) speedup to it.  The model blends
bandwidth by where traffic is served: the share that must reach HBM at
HBM's bandwidth, the rest at CMEM's when CMEM is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GB, GIB, MIB


@dataclass(frozen=True)
class MemorySystem:
    """Capacities and bandwidths of one chip's memory levels."""

    hbm_capacity: float = 32 * GIB
    hbm_bandwidth: float = 1200 * GB
    cmem_capacity: float = 128 * MIB
    cmem_bandwidth: float = 4800 * GB   # on-chip SRAM, ~4x HBM
    vmem_capacity: float = 32 * MIB
    vmem_bandwidth: float = 9600 * GB
    cmem_enabled: bool = True

    def without_cmem(self) -> "MemorySystem":
        """The Figure 13 ablation: CMEM turned off."""
        return MemorySystem(
            hbm_capacity=self.hbm_capacity,
            hbm_bandwidth=self.hbm_bandwidth,
            cmem_capacity=self.cmem_capacity,
            cmem_bandwidth=self.cmem_bandwidth,
            vmem_capacity=self.vmem_capacity,
            vmem_bandwidth=self.vmem_bandwidth,
            cmem_enabled=False,
        )

    def effective_bandwidth(self, hbm_fraction: float) -> float:
        """Blended bandwidth when a fraction of traffic must go to HBM.

        The remaining (1 - hbm_fraction) is served by CMEM when enabled,
        else it spills to HBM too.
        """
        if not 0.0 <= hbm_fraction <= 1.0:
            raise ConfigurationError("hbm_fraction must be within [0, 1]")
        if not self.cmem_enabled:
            return self.hbm_bandwidth
        on_chip = 1.0 - hbm_fraction
        # Harmonic blend: time = f/hbm + (1-f)/cmem per byte.
        denom = hbm_fraction / self.hbm_bandwidth + on_chip / self.cmem_bandwidth
        return 1.0 / denom if denom > 0 else self.cmem_bandwidth


TPUV3_MEMORY = MemorySystem(
    hbm_capacity=32 * GIB,
    hbm_bandwidth=900 * GB,
    cmem_capacity=0.0,
    cmem_bandwidth=0.0,
    vmem_capacity=32 * MIB,
    vmem_bandwidth=7200 * GB,
    cmem_enabled=False,
)
