"""DLRM serving-path model (Section 3.1's inference requirements).

"Google's production advertising models score ads for billions of
queries daily ... and are required to perform inference at well over one
hundred thousand requests per second."  Serving is forward-only: no
flush, no gradient all-to-all, small per-request batches, latency-bound.
This model estimates QPS and tail-latency headroom for a DLRM on a slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.dlrm import DLRMConfig
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.timing import SCTimingParams, TPUV4_SC
from repro.topology.properties import theoretical_bisection_scaling
from repro.units import TFLOP

#: Serving latency budget per step (Section 3.1).
LATENCY_BUDGET_SECONDS = 10e-3


@dataclass(frozen=True)
class ServingEstimate:
    """Throughput/latency estimate for one serving deployment."""

    num_chips: int
    batch_per_step: int
    step_seconds: float

    @property
    def qps(self) -> float:
        """Sustained requests (examples) per second."""
        return self.batch_per_step * self.num_chips / self.step_seconds

    def meets_latency(self, budget_seconds: float) -> bool:
        """True when a step fits the serving latency budget."""
        return self.step_seconds <= budget_seconds


def serving_estimate(config: DLRMConfig, num_chips: int, *,
                     batch_per_chip: int = 64,
                     sc: SCTimingParams = TPUV4_SC,
                     peak_flops: float = 275 * TFLOP,
                     link_bandwidth: float = 50e9,
                     torus_dims: int = 3) -> ServingEstimate:
    """Forward-only step time for a DLRM at a serving batch size."""
    if num_chips < 1 or batch_per_chip < 1:
        raise ConfigurationError("need >= 1 chip and >= 1 example")
    dense = (batch_per_chip * config.dense_flops_per_example() / 3.0
             / (peak_flops * 0.55))  # forward is ~1/3 of train FLOPs
    core = SparseCore(sc)
    rows = int(batch_per_chip * config.num_features * config.avg_valency
               * (1.0 - config.dedup_fraction))
    row_bytes = config.embedding_dim * 4.0
    sparse = core.gather_time(rows, row_bytes) \
        + core.overhead_time(config.num_tables)
    if num_chips > 1:
        bisection = (theoretical_bisection_scaling(num_chips, torus_dims)
                     * link_bandwidth)
        per_chip = 4.0 * bisection / num_chips
        act_bytes = (batch_per_chip * config.num_features
                     * config.embedding_dim * 4.0) * (num_chips - 1) \
            / num_chips
        network = act_bytes / per_chip
    else:
        network = 0.0
    step = max(dense, sparse, network)
    return ServingEstimate(num_chips=num_chips,
                           batch_per_step=batch_per_chip,
                           step_seconds=step)


def chips_for_qps(config: DLRMConfig, target_qps: float, *,
                  max_chips: int = 4096) -> int:
    """Smallest power-of-two slice sustaining `target_qps` in budget."""
    if target_qps <= 0:
        raise ConfigurationError("target_qps must be > 0")
    chips = 1
    while chips <= max_chips:
        estimate = serving_estimate(config, chips)
        if estimate.qps >= target_qps and \
                estimate.meets_latency(LATENCY_BUDGET_SECONDS):
            return chips
        chips *= 2
    raise ConfigurationError(
        f"no slice up to {max_chips} chips sustains {target_qps:.0f} QPS")
