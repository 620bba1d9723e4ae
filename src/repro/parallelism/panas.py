"""PA-NAS: platform-aware rebalancing of SC vs TC work (Figure 10).

The original DLRM0, tuned by hand and generic NAS, leaves the SparseCore
idle ~25% of each step: dense (TensorCore) time 1.0, sparse (SparseCore)
time ~0.75, so step time = max(dense, sparse) = dense.  PA-NAS searches
model variants that shift capacity between embedding layers (SC) and
hidden layers (TC) at matched model quality; the Pareto point nearly
equalizes the two pipes and improves end-to-end step time >10%.

We model the quality-neutral exchange surface the paper's search walks:
shrinking dense FLOPs by a factor f requires growing embedding work by
`exchange_rate * (1 - f)` to hold quality (embeddings are cheaper per
quality unit on the SC — the whole premise of the co-design).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

ORIGINAL_DENSE_TIME = 1.0          # normalized (Figure 10's convention)
ORIGINAL_SPARSE_TIME = 0.75        # SC idle ~25% of the step
EXCHANGE_RATE = 1.6                # sparse work added per dense work removed
SEARCH_POINTS = 201                # dense scales swept over [0.5, 1.2]


@dataclass(frozen=True)
class PanasPoint:
    """One candidate DLRM0 variant on the exchange surface."""

    dense_scale: float      # dense FLOPs relative to original
    sparse_scale: float     # embedding work relative to original

    @property
    def dense_time(self) -> float:
        """Normalized TC time."""
        return ORIGINAL_DENSE_TIME * self.dense_scale

    @property
    def sparse_time(self) -> float:
        """Normalized SC time."""
        return ORIGINAL_SPARSE_TIME * self.sparse_scale

    @property
    def step_time(self) -> float:
        """DLRMs run SC and TC concurrently; the slower pipe wins."""
        return max(self.dense_time, self.sparse_time)

    @property
    def sc_idle_fraction(self) -> float:
        """Fraction of the step the SparseCore sits idle."""
        return 1.0 - self.sparse_time / self.step_time


def original_dlrm0_balance() -> PanasPoint:
    """The hand-tuned starting point (top bars of Figure 10)."""
    return PanasPoint(dense_scale=1.0, sparse_scale=1.0)


def quality_neutral_point(dense_scale: float) -> PanasPoint:
    """The variant with `dense_scale` dense FLOPs at matched quality."""
    if not 0.1 <= dense_scale <= 1.5:
        raise ConfigurationError(
            f"dense_scale {dense_scale} outside searchable range")
    sparse_scale = 1.0 + EXCHANGE_RATE * (1.0 - dense_scale)
    if sparse_scale < 0.1:
        raise ConfigurationError("exchange drives sparse work negative")
    return PanasPoint(dense_scale=dense_scale, sparse_scale=sparse_scale)


def dlrm0_panas_search() -> PanasPoint:
    """Sweep the exchange surface, return the fastest balanced variant."""
    best: PanasPoint | None = None
    for dense_scale in np.linspace(0.5, 1.2, SEARCH_POINTS):
        point = quality_neutral_point(float(dense_scale))
        if best is None or point.step_time < best.step_time:
            best = point
    assert best is not None
    return best


def panas_gain() -> float:
    """End-to-end speedup PA-NAS finds (paper: >10%)."""
    return (original_dlrm0_balance().step_time
            / dlrm0_panas_search().step_time)
