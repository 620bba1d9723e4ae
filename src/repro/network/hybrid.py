"""Hybrid ICI/Infiniband collectives versus the OCS torus (Section 7.3).

The what-if: keep ICI inside 8-chip islands (as NVLink does inside a DGX)
and run Infiniband with one 200 Gbit/s NIC per chip above that, as a full
3-level fat tree.  The paper's event-driven simulation found an optimized
all-reduce runs 1.8x-2.4x slower and an all-to-all 1.2x-2.4x slower than
the OCS torus, depending on slice size.

Model:

* torus all-reduce: the bandwidth term of the split schedule of
  :class:`repro.network.collectives.AxisGeometry` on the balanced torus;
* hybrid all-reduce: hierarchical reduce-scatter (island) / all-reduce
  (IB rings per rail) / all-gather (island), with the local and global
  phases pipelined chunk-wise, so wall time is max(local, global);
* torus all-to-all: the ECMP-limited per-node throughput of
  :func:`repro.network.analytic.alltoall_analysis`, exact at every slice
  size;
* hybrid all-to-all: NIC-bound on the cross-island traffic fraction,
  derated by fat-tree routing efficiency.

There are two free parameters.  IB `fabric_efficiency` (default 0.70)
covers ECMP collisions and transport overheads the paper's simulator also
modelled; ICI `alltoall_efficiency` (default 0.85) derates the analytic
torus all-to-all to the measured level (see :class:`ICIParams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.availability import balanced_block_shape
from repro.errors import ConfigurationError
from repro.network.analytic import alltoall_analysis
from repro.network.collectives import AxisGeometry
from repro.topology.torus import Torus3D


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


def _check_efficiency(name: str, value: float) -> None:
    if not 0 < value <= 1:
        raise ConfigurationError(f"{name} must be in (0, 1], got {value}")


def _check_bytes(num_bytes: float) -> None:
    if not (math.isfinite(num_bytes) and num_bytes >= 0):
        raise ConfigurationError(
            f"byte count must be finite and >= 0, got {num_bytes}")


def _island_links_per_chip(island_size: int) -> int:
    """ICI links per chip inside an island (2x2x2 mesh -> 3 links)."""
    if island_size == 8:
        return 3
    if island_size == 4:
        return 2
    raise ConfigurationError(f"unsupported island size {island_size}")


@dataclass(frozen=True)
class ICIParams:
    """ICI link characteristics (Table 4).

    `alltoall_efficiency` derates the analytic ECMP throughput for the
    4 KiB-DMA regime: Figure 6's own stacked bars show measured all-to-all
    lands 10-20% under the theoretical ideal.
    """

    link_bandwidth: float = 50e9   # bytes/s per direction per link
    links_per_chip: int = 6
    alltoall_efficiency: float = 0.85

    def __post_init__(self) -> None:
        _check_positive("link_bandwidth", self.link_bandwidth)
        if self.links_per_chip < 1:
            raise ConfigurationError(
                f"links_per_chip must be >= 1, got {self.links_per_chip}")
        _check_efficiency("alltoall_efficiency", self.alltoall_efficiency)


@dataclass(frozen=True)
class IBParams:
    """Infiniband NIC/fabric characteristics (Section 7.3)."""

    nic_bandwidth: float = 25e9    # 200 Gbit/s HDR, bytes/s per direction
    fabric_efficiency: float = 0.70
    island_size: int = 8           # chips glued by ICI, like a DGX

    def __post_init__(self) -> None:
        _check_positive("nic_bandwidth", self.nic_bandwidth)
        _check_efficiency("fabric_efficiency", self.fabric_efficiency)
        _island_links_per_chip(self.island_size)


@dataclass(frozen=True)
class HybridNetworkParams:
    """The full parameter set for the Section 7.3 comparison."""

    ici: ICIParams = ICIParams()
    ib: IBParams = IBParams()


def allreduce_time_hybrid(num_chips: int, num_bytes: float,
                          params: HybridNetworkParams | None = None) -> float:
    """Hierarchical all-reduce time on the hybrid ICI/IB network."""
    _check_bytes(num_bytes)
    params = params or HybridNetworkParams()
    k = params.ib.island_size
    if num_chips % k:
        raise ConfigurationError(
            f"{num_chips} chips do not tile into islands of {k}")
    num_islands = num_chips // k
    local_links = _island_links_per_chip(k)
    local_bw = local_links * params.ici.link_bandwidth
    # Local all-reduce (RS + AG): 2 * (k-1)/k of the buffer over ICI.
    local_time = 2 * (k - 1) / k * num_bytes / local_bw
    if num_islands == 1:
        return local_time
    # Global phase: each chip rings its shard (B/k) across islands per rail.
    eff_nic = params.ib.nic_bandwidth * params.ib.fabric_efficiency
    global_time = (2 * (num_islands - 1) / num_islands
                   * (num_bytes / k) / eff_nic)
    # Chunk-pipelined hierarchical schedule: phases overlap.
    return max(local_time, global_time)


def allreduce_time_ocs(num_chips: int, num_bytes: float,
                       params: HybridNetworkParams | None = None) -> float:
    """Torus all-reduce on the balanced OCS slice for `num_chips`."""
    params = params or HybridNetworkParams()
    shape = balanced_block_shape(num_chips)
    return AxisGeometry(shape, params.ici.link_bandwidth,
                        alpha=0.0).allreduce(num_bytes)


def alltoall_time_ocs(num_chips: int, per_node_bytes: float,
                      params: HybridNetworkParams | None = None) -> float:
    """Uniform all-to-all time on the balanced OCS torus."""
    _check_bytes(per_node_bytes)
    params = params or HybridNetworkParams()
    torus = Torus3D(balanced_block_shape(num_chips))
    analysis = alltoall_analysis(torus, params.ici.link_bandwidth)
    throughput = (analysis.per_node_throughput
                  * params.ici.alltoall_efficiency)
    return per_node_bytes / throughput


def alltoall_time_hybrid(num_chips: int, per_node_bytes: float,
                         params: HybridNetworkParams | None = None) -> float:
    """Uniform all-to-all time on the hybrid network (NIC-bound)."""
    _check_bytes(per_node_bytes)
    params = params or HybridNetworkParams()
    k = params.ib.island_size
    if num_chips <= k:
        # Fits inside one island: pure ICI, roughly torus-class speed.
        local_bw = _island_links_per_chip(k) * params.ici.link_bandwidth
        return per_node_bytes / local_bw
    cross_fraction = (num_chips - k) / (num_chips - 1)
    eff_nic = params.ib.nic_bandwidth * params.ib.fabric_efficiency
    return per_node_bytes * cross_fraction / eff_nic


def ib_vs_ocs_slowdowns(slice_sizes: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
                        num_bytes: float = 1 << 28,
                        params: HybridNetworkParams | None = None
                        ) -> dict[int, dict[str, float]]:
    """Slowdown of the hybrid network per slice size (paper: 1.8-2.4x
    all-reduce, 1.2-2.4x all-to-all)."""
    params = params or HybridNetworkParams()
    out: dict[int, dict[str, float]] = {}
    for size in slice_sizes:
        ar = (allreduce_time_hybrid(size, num_bytes, params)
              / allreduce_time_ocs(size, num_bytes, params))
        per_node = num_bytes
        a2a = (alltoall_time_hybrid(size, per_node, params)
               / alltoall_time_ocs(size, per_node, params))
        out[size] = {"allreduce": ar, "alltoall": a2a}
    return out
