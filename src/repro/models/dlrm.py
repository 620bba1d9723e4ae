"""DLRM0: the paper's flagship recommendation model (Figures 9, 17).

Covers three reproductions:

* the Figure 9 system comparison — DLRM0 on a 576-socket CPU cluster, a
  128-chip TPU v3, a 128-chip TPU v4, and TPU v4 with embeddings evicted
  to CPU hosts or external variable servers (no SparseCore);
* the Figure 17 growth history — 43 DLRM0 versions over 2017-2022 with
  weights growing 4.2x and embeddings 3.8x;
* the DLRMConfig cost inputs shared with PA-NAS (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.errors import ConfigurationError
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.timing import SCTimingParams, TPUV3_SC, TPUV4_SC
from repro.topology.properties import theoretical_bisection_scaling
from repro.units import GB, TFLOP


@dataclass(frozen=True)
class DLRMConfig:
    """A production-scale recommendation model (Section 7.9 numbers)."""

    name: str = "DLRM0"
    dense_params: float = 137e6          # Int8 weights (Figure 17, 2022)
    embedding_params: float = 20e9       # ~20B (Figure 8 caption)
    num_features: int = 300
    num_tables: int = 150
    embedding_dim: int = 100
    avg_valency: float = 1.5   # features are mostly univalent on average
    dedup_fraction: float = 0.35
    batch_per_chip: int = 32

    def dense_flops_per_example(self) -> float:
        """Fwd+bwd MLP FLOPs per example (~6 per weight)."""
        return 6.0 * self.dense_params

    def embedding_rows_per_chip(self) -> float:
        """Deduplicated gathers per chip per step."""
        return (self.batch_per_chip * self.num_features * self.avg_valency
                * (1.0 - self.dedup_fraction))

    def activation_bytes_per_chip(self) -> float:
        """Combined embedding activations leaving each chip per step."""
        return (self.batch_per_chip * self.num_features
                * self.embedding_dim * 4.0)


DLRM0_2022 = DLRMConfig()


class SystemKind(Enum):
    """The five Figure 9 systems."""

    CPU_CLUSTER = "cpu"
    TPUV3 = "tpu_v3"
    TPUV4 = "tpu_v4"
    TPUV4_EMB_ON_HOST = "tpu_v4_emb_host"
    TPUV4_EMB_ON_VARIABLE_SERVER = "tpu_v4_emb_varserver"


@dataclass(frozen=True)
class SystemParams:
    """Hardware coefficients per Figure 9 system (documented estimates)."""

    # CPU cluster (576 Skylake sockets: 400 learners + 176 var servers).
    cpu_sockets: int = 576
    cpu_flops: float = 4.0 * TFLOP          # AVX-512 bf16-ish per socket
    cpu_dense_efficiency: float = 0.45      # achievable MLP efficiency
    cpu_mem_bandwidth: float = 90 * GB      # DDR4 per socket
    cpu_gather_efficiency: float = 0.50     # software-pipelined gathers
    cpu_nic_bandwidth: float = 6.25 * GB    # 50 Gbit/s datacenter NIC
    # TPU v4 host path (no SparseCore): embeddings in host DRAM.
    host_mem_bandwidth: float = 90 * GB     # shared by 4 chips per host
    host_gather_efficiency: float = 0.65
    pcie_bandwidth: float = 8 * GB          # per chip to its host
    # Variable-server path: 64 external servers over the datacenter net.
    num_variable_servers: int = 64
    varserver_nic_bandwidth: float = 18.75 * GB  # 150 Gbit/s bonded


def _tpu_dlrm_step(config: DLRMConfig, num_chips: int, *,
                   sc: SCTimingParams, peak_flops: float,
                   link_bandwidth: float, torus_dims: int,
                   mxu_efficiency: float = 0.55) -> float:
    """One training step on a TPU slice with SparseCores."""
    dense = (config.batch_per_chip * config.dense_flops_per_example()
             / (peak_flops * mxu_efficiency))
    core = SparseCore(sc)
    rows = int(config.embedding_rows_per_chip())
    row_bytes = config.embedding_dim * 4.0
    sparse = (core.gather_time(rows, row_bytes)
              + core.flush_time(rows, row_bytes)
              + core.overhead_time(config.num_tables))
    if num_chips > 1:
        bisection = (theoretical_bisection_scaling(num_chips, torus_dims)
                     * link_bandwidth)
        per_chip = 4.0 * bisection / num_chips
        network = 2.0 * config.activation_bytes_per_chip() / per_chip
    else:
        network = 0.0
    # Dense cores, sparse cores, and ICI overlap; slowest pipe wins.
    return max(dense, sparse, network)


def dlrm_step_time(config: DLRMConfig, system: SystemKind, *,
                   num_chips: int = 128,
                   params: SystemParams | None = None) -> float:
    """Per-step time of DLRM0 on one of the Figure 9 systems.

    `num_chips` applies to the TPU systems (Figure 9 uses 128).  The CPU
    cluster uses `params.cpu_sockets` regardless.
    """
    params = params or SystemParams()
    global_batch = config.batch_per_chip * num_chips

    if system is SystemKind.TPUV3:
        return _tpu_dlrm_step(config, num_chips, sc=TPUV3_SC,
                              peak_flops=123 * TFLOP,
                              link_bandwidth=70 * GB, torus_dims=2)
    if system is SystemKind.TPUV4:
        return _tpu_dlrm_step(config, num_chips, sc=TPUV4_SC,
                              peak_flops=275 * TFLOP,
                              link_bandwidth=50 * GB, torus_dims=3)

    if system is SystemKind.CPU_CLUSTER:
        learners = int(params.cpu_sockets * 400 / 576)
        dense = (global_batch * config.dense_flops_per_example()
                 / (learners * params.cpu_flops
                    * params.cpu_dense_efficiency))
        rows = (global_batch * config.num_features * config.avg_valency
                * (1.0 - config.dedup_fraction))
        gather_bw = (params.cpu_sockets * params.cpu_mem_bandwidth
                     * params.cpu_gather_efficiency)
        gather = 2.0 * rows * config.embedding_dim * 4.0 / gather_bw
        act_bytes = (global_batch * config.num_features
                     * config.embedding_dim * 4.0)
        network = 2.0 * act_bytes / (params.cpu_sockets
                                     * params.cpu_nic_bandwidth / 2.0)
        # CPU software stack cannot overlap these phases well.
        return dense + gather + network

    # TPU v4 with embeddings off-chip: dense stays fast, embeddings crawl
    # through host DRAM (or the DCN) and the PCIe funnel — Amdahl's Law,
    # amplified by the 4:1 chip-to-host ratio (Section 3.5).
    dense = (config.batch_per_chip * config.dense_flops_per_example()
             / (275 * TFLOP * 0.55))
    rows_per_chip = config.embedding_rows_per_chip()
    act_bytes = config.activation_bytes_per_chip()
    pcie = 2.0 * act_bytes / params.pcie_bandwidth
    if system is SystemKind.TPUV4_EMB_ON_HOST:
        host_bw = (params.host_mem_bandwidth * params.host_gather_efficiency
                   / 4.0)  # 4 chips share one host (Amdahl amplifier)
        gather = 2.0 * rows_per_chip * config.embedding_dim * 4.0 / host_bw
        return dense + max(gather, pcie)
    if system is SystemKind.TPUV4_EMB_ON_VARIABLE_SERVER:
        per_chip_dcn = (params.num_variable_servers
                        * params.varserver_nic_bandwidth) / num_chips
        transfer = 2.0 * act_bytes / per_chip_dcn
        server_bw = (params.num_variable_servers * params.cpu_mem_bandwidth
                     * params.cpu_gather_efficiency) / num_chips
        gather = 2.0 * rows_per_chip * config.embedding_dim * 4.0 / server_bw
        return dense + max(gather, transfer)
    raise ConfigurationError(f"unknown system {system}")


def dlrm_relative_performance(config: DLRMConfig = DLRM0_2022, *,
                              num_chips: int = 128,
                              params: SystemParams | None = None
                              ) -> dict[SystemKind, float]:
    """Figure 9: throughput of each system relative to the CPU cluster."""
    times = {system: dlrm_step_time(config, system, num_chips=num_chips,
                                    params=params)
             for system in SystemKind}
    cpu = times[SystemKind.CPU_CLUSTER]
    return {system: cpu / t for system, t in times.items()}


# --------------------------------------------------------------------------
# Figure 17: DLRM0 version history
# --------------------------------------------------------------------------

NUM_DLRM0_VERSIONS = 43
WEIGHTS_GROWTH = 4.2
EMBEDDINGS_GROWTH = 3.8
FIRST_VERSION_YEAR = 2017.0
LAST_VERSION_YEAR = 2022.0


def dlrm0_version_history() -> list[DLRMConfig]:
    """The 43 DLRM0 versions, sizes growing geometrically (Figure 17).

    A new version every ~6 weeks; weights end 4.2x and embeddings 3.8x
    their 2017 sizes.  Returns configs ordered oldest first; version i's
    name encodes its release date.
    """
    base_weights = DLRM0_2022.dense_params / WEIGHTS_GROWTH
    base_embeddings = DLRM0_2022.embedding_params / EMBEDDINGS_GROWTH
    versions = []
    for i in range(NUM_DLRM0_VERSIONS):
        frac = i / (NUM_DLRM0_VERSIONS - 1)
        year = FIRST_VERSION_YEAR + frac * (LAST_VERSION_YEAR
                                            - FIRST_VERSION_YEAR)
        weights = base_weights * WEIGHTS_GROWTH**frac
        embeddings = base_embeddings * EMBEDDINGS_GROWTH**frac
        versions.append(replace(
            DLRM0_2022,
            name=f"DLRM0-v{i + 1} ({year:.1f})",
            dense_params=weights,
            embedding_params=embeddings,
        ))
    return versions
