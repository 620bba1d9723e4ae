"""Deterministic request-traffic curves for the serving tier.

One :class:`ModelTraffic` describes the open-loop arrival rate of one
served model: a diurnal sinusoid between a night floor and the daily
peak, times any surge windows (a launch spike, a failover pile-on).
The curve is a pure function of simulated time — no RNG stream — so
serve runs stay byte-identical without touching the config's seeded
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import DAY


@dataclass(frozen=True)
class SurgeWindow:
    """A multiplicative traffic spike over ``[start, end)`` seconds."""

    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"surge window must end after it starts, got "
                f"[{self.start}, {self.end})")
        if self.multiplier <= 0:
            raise ConfigurationError(
                f"surge multiplier must be > 0, got {self.multiplier}")


@dataclass(frozen=True)
class ModelTraffic:
    """The arrival curve and serving requirements of one model.

    Attributes:
        name: the deployment's name (pool key and report label).
        peak_qps: the diurnal curve's daily maximum, before surges.
        replica_chips: chips of one replica slice; the per-replica
            capacity and base latency derive from
            :func:`repro.models.serving.serving_estimate` at this size.
        slo_seconds: per-request latency SLO the pool is held to.
        base_fraction: night floor as a share of `peak_qps`.
        phase_seconds: time of the daily *trough*; the peak sits half a
            day later.
        surges: surge windows multiplied onto the diurnal curve.
    """

    name: str
    peak_qps: float
    replica_chips: int
    slo_seconds: float
    base_fraction: float = 0.35
    phase_seconds: float = 0.0
    surges: tuple[SurgeWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.peak_qps <= 0:
            raise ConfigurationError("peak_qps must be > 0")
        if self.replica_chips < 1:
            raise ConfigurationError("replica_chips must be >= 1")
        if self.slo_seconds <= 0:
            raise ConfigurationError("slo_seconds must be > 0")
        if not 0.0 < self.base_fraction <= 1.0:
            raise ConfigurationError("base_fraction must be in (0, 1]")

    def diurnal_qps(self, t: float) -> float:
        """The daily curve alone — what a scheduled plan can know."""
        shape = 0.5 * (1.0 - math.cos(
            2.0 * math.pi * (t - self.phase_seconds) / DAY))
        return self.peak_qps * (self.base_fraction +
                                (1.0 - self.base_fraction) * shape)

    def surge_multiplier(self, t: float) -> float:
        """Product of every surge window covering `t` (1.0 outside)."""
        multiplier = 1.0
        for surge in self.surges:
            if surge.start <= t < surge.end:
                multiplier *= surge.multiplier
        return multiplier

    def qps_at(self, t: float) -> float:
        """Instantaneous arrival rate: diurnal curve times surges."""
        return self.diurnal_qps(t) * self.surge_multiplier(t)

    @property
    def peak_qps_with_surge(self) -> float:
        """Upper bound of the full curve — the static pool's pin point.

        The diurnal maximum times the largest surge multiplier: what a
        peak-pinned capacity split must provision for to never shed.
        """
        worst = max((s.multiplier for s in self.surges), default=1.0)
        return self.peak_qps * max(1.0, worst)
