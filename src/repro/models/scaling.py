"""Weak-scaling curves for production apps (Figure 11).

Figure 11 plots speedup vs slice size on a log-log scale for the eight
production workloads, batch scaled with chips (the production practice;
Figure 8's caption states it for DLRMs).  Half the apps (CNN0, RNN0,
RNN1, BERT1) scale near-perfectly to 3K chips; BERT0 stops at 2K and
DLRM0/1 at 1K — infrastructure limits, not model limits.

Per-chip work stays constant under weak scaling; what grows is
communication: all-reduce ring latency grows with ring length (~N^(1/3))
and, for DLRMs, the per-chip share of bisection bandwidth shrinks as
N^(-1/3), so the embedding all-to-all term grows ~N^(1/3) — which is why
the DLRM curves bend first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.profiles import AppProfile, PRODUCTION_APPS
from repro.models.perfmodel import TPUV4_GEN, ChipGeneration
from repro.topology.properties import theoretical_bisection_scaling

FIGURE11_SIZES = (64, 128, 256, 512, 1024, 2048, 3072)
RING_LATENCY = 2e-6      # per N^(1/3) of ring length, per step
ALLTOALL_BYTES_FRACTION = 0.6  # share of DLRM comm that is all-to-all
# An app scales well when it keeps this efficiency at this size.
WELL_EFFICIENCY = 0.75
WELL_AT_CHIPS = 3072


@dataclass(frozen=True)
class ScalingCurve:
    """Speedup-vs-chips curve of one app (Figure 11 axes)."""

    app: str
    chips: tuple[int, ...]
    speedup: tuple[float, ...]

    def efficiency(self) -> tuple[float, ...]:
        """Parallel efficiency relative to the base point."""
        return tuple(s / (n / self.chips[0])
                     for s, n in zip(self.speedup, self.chips))


def _weak_step_time(profile: AppProfile, num_chips: int,
                    generation: ChipGeneration) -> float:
    """Per-step time with per-chip work held constant."""
    dense = generation.dense_time(profile)
    sparse = generation.sparse_time(profile)
    comm_bw = 2 * generation.torus_dims * generation.link_bandwidth
    saturation = (num_chips - 1) / num_chips
    allreduce = (profile.comm_bytes * 2 * saturation / comm_bw
                 + RING_LATENCY * num_chips ** (1.0 / 3.0))
    alltoall = 0.0
    if profile.embedding_rows:
        bisection = (theoretical_bisection_scaling(
            num_chips, generation.torus_dims) * generation.link_bandwidth)
        per_chip_bw = 4.0 * bisection / num_chips
        alltoall = (profile.comm_bytes * ALLTOALL_BYTES_FRACTION * 2
                    / per_chip_bw)
    return max(dense, sparse) + allreduce + alltoall


def scaling_curve(app: str, *, sizes: tuple[int, ...] = FIGURE11_SIZES,
                  generation: ChipGeneration = TPUV4_GEN) -> ScalingCurve:
    """Weak-scaling speedup, clipped at the app's infrastructure limit."""
    if app not in PRODUCTION_APPS:
        raise ConfigurationError(f"unknown app {app!r}")
    profile = PRODUCTION_APPS[app]
    usable = [n for n in sizes if n <= profile.scale_limit_chips]
    if not usable:
        raise ConfigurationError(
            f"{app}: no sizes under its limit {profile.scale_limit_chips}")
    base_chips = usable[0]
    base_time = _weak_step_time(profile, base_chips, generation)
    speedups = tuple(
        (n / base_chips) * base_time / _weak_step_time(profile, n, generation)
        for n in usable)
    return ScalingCurve(app=app, chips=tuple(usable), speedup=speedups)


def production_scaling_curves(
        sizes: tuple[int, ...] = FIGURE11_SIZES
) -> dict[str, ScalingCurve]:
    """Figure 11: curves for all eight apps."""
    return {app: scaling_curve(app, sizes=sizes)
            for app in sorted(PRODUCTION_APPS)}


def apps_scaling_well() -> list[str]:
    """Apps holding >= `WELL_EFFICIENCY` efficiency at `WELL_AT_CHIPS`
    chips (paper: half)."""
    names = []
    for app, curve in production_scaling_curves().items():
        if WELL_AT_CHIPS not in curve.chips:
            continue
        index = curve.chips.index(WELL_AT_CHIPS)
        if curve.efficiency()[index] >= WELL_EFFICIENCY:
            names.append(app)
    return names
