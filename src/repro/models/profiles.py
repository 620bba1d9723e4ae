"""Resource profiles of the eight production applications (Figures 11-13).

Each app is characterized per chip per step by: dense FLOPs, HBM traffic,
the fraction of that traffic CMEM can capture (working sets under 128 MiB:
weights of small models, activation re-reads), embedding work (DLRMs), and
collective-communication bytes.  The constants are calibrated so the
paper's published per-app TPU v4 / v3 speedups (Figure 12) and CMEM
ablations (Figure 13) fall out of the generation model in
:mod:`repro.models.perfmodel`; they are synthetic stand-ins for
proprietary workloads, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GFLOP, MB


@dataclass(frozen=True)
class AppProfile:
    """Per-chip, per-step resource shape of one production app."""

    name: str
    kind: str                      # 'cnn' | 'rnn' | 'bert' | 'dlrm'
    dense_flops: float             # FLOPs per chip per step
    hbm_bytes: float               # dense-side HBM traffic per chip per step
    cmem_fraction: float           # share of hbm_bytes CMEM can capture
    embedding_rows: int = 0        # embedding gathers per chip per step
    embedding_row_bytes: float = 400.0
    comm_bytes: float = 0.0        # collective bytes per chip per step
    paper_speedup_v4_over_v3: float | None = None  # Figure 12 target
    scale_limit_chips: int = 3072  # Figure 11 infrastructure limit

    def __post_init__(self) -> None:
        if not 0.0 <= self.cmem_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: cmem_fraction must be in [0, 1]")
        if self.dense_flops < 0 or self.hbm_bytes < 0:
            raise ConfigurationError(f"{self.name}: negative resources")


# Calibration notes (per app):
# - CNNs: compute-dominated, moderate activation traffic, some CMEM reuse.
# - RNN0: mid OI; RNN1: tiny weights + small batch, so almost all traffic
#   is weight re-reads that CMEM fully captures (paper: 3.3x, 2x of it
#   from CMEM).
# - BERTs: large matmuls, compute-bound, modest CMEM benefit.
# - DLRMs: dominated by SparseCore embedding work (Figures 8/9).
PRODUCTION_APPS: dict[str, AppProfile] = {
    "CNN0": AppProfile(
        name="CNN0", kind="cnn",
        dense_flops=140 * GFLOP, hbm_bytes=1772 * MB, cmem_fraction=0.15,
        comm_bytes=25 * MB, paper_speedup_v4_over_v3=1.7,
        scale_limit_chips=3072),
    "CNN1": AppProfile(
        name="CNN1", kind="cnn",
        dense_flops=90 * GFLOP, hbm_bytes=1840 * MB, cmem_fraction=0.14,
        comm_bytes=30 * MB, paper_speedup_v4_over_v3=1.6,
        scale_limit_chips=3072),
    "RNN0": AppProfile(
        name="RNN0", kind="rnn",
        dense_flops=25 * GFLOP, hbm_bytes=561 * MB, cmem_fraction=0.30,
        comm_bytes=12 * MB, paper_speedup_v4_over_v3=1.8,
        scale_limit_chips=3072),
    "RNN1": AppProfile(
        name="RNN1", kind="rnn",
        dense_flops=6 * GFLOP, hbm_bytes=115 * MB, cmem_fraction=0.99,
        comm_bytes=6 * MB, paper_speedup_v4_over_v3=3.3,
        scale_limit_chips=3072),
    "BERT0": AppProfile(
        name="BERT0", kind="bert",
        dense_flops=220 * GFLOP, hbm_bytes=2056 * MB, cmem_fraction=0.08,
        comm_bytes=40 * MB, paper_speedup_v4_over_v3=1.9,
        scale_limit_chips=2048),
    "BERT1": AppProfile(
        name="BERT1", kind="bert",
        dense_flops=180 * GFLOP, hbm_bytes=1984 * MB, cmem_fraction=0.13,
        comm_bytes=35 * MB, paper_speedup_v4_over_v3=1.8,
        scale_limit_chips=3072),
    "DLRM0": AppProfile(
        name="DLRM0", kind="dlrm",
        dense_flops=26.3 * GFLOP, hbm_bytes=10 * MB, cmem_fraction=0.30,
        embedding_rows=9_360, embedding_row_bytes=400.0,
        comm_bytes=20 * MB, paper_speedup_v4_over_v3=3.1,
        scale_limit_chips=1024),
    "DLRM1": AppProfile(
        name="DLRM1", kind="dlrm",
        dense_flops=36 * GFLOP, hbm_bytes=10 * MB, cmem_fraction=0.30,
        embedding_rows=53_500, embedding_row_bytes=400.0,
        comm_bytes=24 * MB, paper_speedup_v4_over_v3=2.8,
        scale_limit_chips=1024),
}
