"""Incremental deployment (paper Section 2.4).

TPU v3 machines were unusable until all 1024 chips and every cable
arrived and tested; with OCSes, each 4x4x4 block enters production as
soon as its own 64 chips and cables are ready.  This model quantifies
that benefit: given a stream of block delivery dates (with stragglers),
compute usable chip-days under both policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class DeploymentOutcome:
    """Usable capacity during the rollout window."""

    policy: str
    horizon_days: float
    chip_days: float
    full_capacity_day: float

    @property
    def utilization(self) -> float:
        """Fraction of the ideal (all chips from day 0) chip-days."""
        return self.chip_days / (self.horizon_days * 64 * 64)


def sample_delivery_days(num_blocks: int = 64, *,
                         mean_interval_days: float = 1.5,
                         straggler_fraction: float = 0.1,
                         straggler_delay_days: float = 30.0,
                         seed: int = 0) -> np.ndarray:
    """Block ready-dates: a steady ramp plus a tail of stragglers.

    Component delivery delays are the real killer the paper cites: "
    delivery delays for any component held up the entire supercomputer."
    """
    if num_blocks < 1:
        raise ConfigurationError("need at least one block")
    rng = make_rng(seed)
    base = np.cumsum(rng.exponential(mean_interval_days, size=num_blocks))
    stragglers = rng.random(num_blocks) < straggler_fraction
    base[stragglers] += rng.exponential(straggler_delay_days,
                                        size=int(stragglers.sum()))
    return np.sort(base)


def incremental_deployment(delivery_days: np.ndarray,
                           horizon_days: float | None = None,
                           chips_per_block: int = 64) -> DeploymentOutcome:
    """OCS policy: every block serves from its own ready-date."""
    deliveries = np.asarray(delivery_days, dtype=float)
    full_day = float(deliveries.max())
    horizon = horizon_days if horizon_days is not None else full_day * 1.5
    usable = np.clip(horizon - deliveries, 0.0, None)
    return DeploymentOutcome(policy="incremental (OCS)",
                             horizon_days=horizon,
                             chip_days=float(usable.sum()) * chips_per_block,
                             full_capacity_day=full_day)


def monolithic_deployment(delivery_days: np.ndarray,
                          horizon_days: float | None = None,
                          chips_per_block: int = 64) -> DeploymentOutcome:
    """Static policy: nothing serves until the last cable arrives."""
    deliveries = np.asarray(delivery_days, dtype=float)
    full_day = float(deliveries.max())
    horizon = horizon_days if horizon_days is not None else full_day * 1.5
    usable_days = max(horizon - full_day, 0.0)
    chip_days = usable_days * chips_per_block * len(deliveries)
    return DeploymentOutcome(policy="monolithic (static)",
                             horizon_days=horizon,
                             chip_days=chip_days,
                             full_capacity_day=full_day)
