"""Per-generation step-time model for production apps (Figures 12-13).

One chip generation = peak FLOPS + MXU efficiency + memory system (with or
without CMEM) + SparseCore timing + interconnect.  An app's step time is

    max(dense compute, dense memory)   # TensorCore pipelines overlap
      overlapped with SparseCore embedding work (separate cores)
      plus collective-communication time

The dense term uses an additive compute+memory blend (imperfect overlap,
`overlap` parameter) — pure-max models overpredict speedups for apps near
the roofline ridge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.profiles import AppProfile, PRODUCTION_APPS
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.timing import SCTimingParams, TPUV3_SC, TPUV4_SC
from repro.tensorcore.memory import MemorySystem, TPUV3_MEMORY
from repro.units import GB, TFLOP


@dataclass(frozen=True)
class ChipGeneration:
    """Everything the step-time model needs to know about one chip."""

    name: str
    peak_flops: float
    mxu_efficiency: float
    memory: MemorySystem
    sc: SCTimingParams
    link_bandwidth: float
    torus_dims: int
    mean_watts: float

    def dense_time(self, profile: AppProfile) -> float:
        """Compute + memory time for the dense layers (imperfect overlap)."""
        compute = profile.dense_flops / (self.peak_flops * self.mxu_efficiency)
        hbm_fraction = 1.0 - profile.cmem_fraction
        bandwidth = self.memory.effective_bandwidth(hbm_fraction)
        memory = profile.hbm_bytes / bandwidth
        # 60% of the shorter phase hides under the longer one.
        overlap = 0.6 * min(compute, memory)
        return compute + memory - overlap

    def sparse_time(self, profile: AppProfile) -> float:
        """SparseCore embedding time (zero for non-DLRM apps)."""
        if profile.embedding_rows == 0:
            return 0.0
        core = SparseCore(self.sc)
        gather = core.gather_time(profile.embedding_rows,
                                  profile.embedding_row_bytes)
        flush = core.flush_time(profile.embedding_rows,
                                profile.embedding_row_bytes)
        return gather + flush + core.overhead_time(150)

    def comm_time(self, profile: AppProfile) -> float:
        """Collective time: all links usable, all-reduce style."""
        total_bw = 2 * self.torus_dims * self.link_bandwidth
        return profile.comm_bytes / total_bw

    def step_time(self, profile: AppProfile) -> float:
        """End-to-end step time.

        The paper (Section 3.5): "As separate cores, SCs allow
        parallelization across dense compute, SC, and ICI communications"
        — so the three pipes fully overlap and the slowest one wins.
        """
        dense = self.dense_time(profile)
        sparse = self.sparse_time(profile)
        comm = self.comm_time(profile)
        return max(dense, sparse, comm)


TPUV4_GEN = ChipGeneration(
    name="TPU v4",
    peak_flops=275 * TFLOP,
    mxu_efficiency=0.55,
    memory=MemorySystem(),
    sc=TPUV4_SC,
    link_bandwidth=50 * GB,
    torus_dims=3,
    mean_watts=170.0,
)

TPUV4_GEN_NO_CMEM = ChipGeneration(
    name="TPU v4 (CMEM off)",
    peak_flops=275 * TFLOP,
    mxu_efficiency=0.55,
    memory=MemorySystem().without_cmem(),
    sc=TPUV4_SC,
    link_bandwidth=50 * GB,
    torus_dims=3,
    mean_watts=170.0 * 0.97,  # CMEM-off runs draw marginally less power
)

TPUV3_GEN = ChipGeneration(
    name="TPU v3",
    peak_flops=123 * TFLOP,
    mxu_efficiency=0.55,
    memory=TPUV3_MEMORY,
    sc=TPUV3_SC,
    link_bandwidth=70 * GB,
    torus_dims=2,
    mean_watts=220.0,
)


def speedup_v4_over_v3(app: str | AppProfile, *,
                       cmem: bool = True) -> float:
    """Figure 12/13's per-app speedup."""
    gen = TPUV4_GEN if cmem else TPUV4_GEN_NO_CMEM
    profile = PRODUCTION_APPS[app] if isinstance(app, str) else app
    return (TPUV3_GEN.step_time(profile) / gen.step_time(profile))


def geomean_speedup(*, cmem: bool = True,
                    apps: list[str] | None = None) -> float:
    """Geometric-mean speedup over the production apps (paper: 2.1x)."""
    names = apps if apps is not None else sorted(PRODUCTION_APPS)
    if not names:
        raise ConfigurationError("no apps given")
    product = 1.0
    for name in names:
        product *= speedup_v4_over_v3(name, cmem=cmem)
    return product ** (1.0 / len(names))


def perf_per_watt_ratio(*, cmem: bool = True) -> float:
    """Figure 13 bottom: performance/Watt of v4 vs v3 (paper: 2.7x)."""
    gen = TPUV4_GEN if cmem else TPUV4_GEN_NO_CMEM
    return geomean_speedup(cmem=cmem) * TPUV3_GEN.mean_watts / gen.mean_watts
