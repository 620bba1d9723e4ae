"""Multi-day deployment scenarios: rollout drains over live traffic.

The paper's availability story (Section 2, Figure 4) is about what a
real fleet does over days: hardware is pulled for incremental
deployment (Section 2.4), slices come and go, and the OCS lets the
machine keep scheduling around the holes.  This module composes the
:mod:`repro.core.deployment` rollout model with the fleet's live job
stream: a :class:`DeploymentSchedule` materializes per-block
:class:`~repro.fleet.failures.DrainWindow` entries (a pod pulled for
upgrade, its blocks returning one by one as their hardware is ready —
block ready-dates drawn by :func:`repro.core.deployment.
sample_delivery_days`), and the simulator overlays them onto the
failure trace, charging the capacity loss through the existing
utilization identity.

Schedules are deterministic functions of the config (delivery draws use
a fixed internal seed), and a recorded trace stores the *materialized*
windows — so replaying a scenario trace needs no schedule registry at
all, and editing a schedule never silently changes an old recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.deployment import sample_delivery_days
from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.failures import DrainWindow
from repro.fleet.simulator import FleetReport, FleetSimulator
from repro.units import DAY, HOUR

#: Delivery draws inside schedule builders use this fixed seed, offset
#: per pod, so a schedule is a pure function of the config — the run
#: seed stays reserved for workload and failures.
_SCHEDULE_SEED = 0


@dataclass(frozen=True)
class DeploymentSchedule:
    """A named set of planned drain windows for one fleet config."""

    name: str
    windows: tuple[DrainWindow, ...]

    @property
    def pods_touched(self) -> int:
        """Distinct pods the schedule drains."""
        return len({w.pod_id for w in self.windows})

    @property
    def drain_block_seconds(self) -> float:
        """Total planned block-seconds out of service."""
        return sum(w.duration for w in self.windows)


def _sorted_windows(windows: list[DrainWindow]) -> tuple[DrainWindow, ...]:
    return tuple(sorted(windows,
                        key=lambda w: (w.start, w.pod_id, w.block_id)))


def incremental_rollout(config: FleetConfig,
                        pulls: Sequence[tuple[int, float]], *,
                        rollout_days: float = 1.5,
                        straggler_fraction: float = 0.1,
                        straggler_delay_days: float = 0.5,
                        name: str = "rollout") -> DeploymentSchedule:
    """Pods pulled for upgrade, blocks returning on delivery dates.

    Each (pod_id, pull_seconds) pair drains the whole pod at its pull
    time; block `b` returns when its hardware is ready —
    `pull + delivery_days[b]` with ready-dates from
    :func:`sample_delivery_days` scaled so the pod's steady ramp spans
    about `rollout_days` (stragglers run longer, exactly the
    delivery-delay tail the paper calls out).  Windows are clamped to
    the horizon: a straggler block may simply never come back inside
    the run, the harshest form of the §2.4 comparison.
    """
    if rollout_days <= 0:
        raise ConfigurationError("rollout_days must be > 0")
    windows: list[DrainWindow] = []
    for pod_id, pull in pulls:
        if not 0 <= pod_id < config.num_pods:
            raise ConfigurationError(
                f"pod {pod_id} out of range [0, {config.num_pods})")
        if pull < 0:
            raise ConfigurationError("pull time must be >= 0")
        if pull >= config.horizon_seconds:
            continue  # pulled after the run ends; nothing to drain
        ready_days = sample_delivery_days(
            num_blocks=config.blocks_per_pod,
            mean_interval_days=rollout_days / config.blocks_per_pod,
            straggler_fraction=straggler_fraction,
            straggler_delay_days=straggler_delay_days,
            seed=_SCHEDULE_SEED + pod_id)
        for block_id, ready in enumerate(ready_days):
            end = min(pull + float(ready) * DAY, config.horizon_seconds)
            if end > pull:
                windows.append(DrainWindow(pod_id=pod_id,
                                           block_id=block_id,
                                           start=pull, end=end))
    return DeploymentSchedule(name=name, windows=_sorted_windows(windows))


def rolling_maintenance(config: FleetConfig, *,
                        drain_seconds: float = 2 * HOUR,
                        span_fraction: float = 0.8,
                        name: str = "maintenance") -> DeploymentSchedule:
    """One maintenance wave marching over every block of the fleet.

    Block `k` (in machine-wide id order) is drained for
    `drain_seconds`, with starts staggered evenly so the wave covers
    `span_fraction` of the horizon — the steady background churn of a
    production fleet, never a correlated capacity cliff.
    """
    if drain_seconds <= 0:
        raise ConfigurationError("drain_seconds must be > 0")
    if not 0 < span_fraction <= 1:
        raise ConfigurationError("span_fraction must be in (0, 1]")
    total = config.total_blocks
    stagger = span_fraction * config.horizon_seconds / total
    windows: list[DrainWindow] = []
    for index in range(total):
        pod_id, block_id = divmod(index, config.blocks_per_pod)
        start = index * stagger
        end = min(start + drain_seconds, config.horizon_seconds)
        if end > start:
            windows.append(DrainWindow(pod_id=pod_id, block_id=block_id,
                                       start=start, end=end))
    return DeploymentSchedule(name=name, windows=_sorted_windows(windows))


# -- named schedules (config/preset/CLI wiring) ----------------------------------


def _deploy_week(config: FleetConfig) -> DeploymentSchedule:
    """Staggered pod upgrades across a multi-day run.

    The highest-id pod is pulled 1/7 into the horizon and (fleets of
    2+ pods) the next one at 3/7, each returning incrementally over
    ~1.5/7 of the horizon — on the 7-day `deploy_week` preset that is
    literally days 1 and 3 with 1.5-day rollouts, and on shorter
    configs the same shape compresses instead of falling off the end.
    Live traffic overlaps two rolling capacity holes, the shape of an
    in-place fleet upgrade week.
    """
    horizon_days = config.horizon_seconds / DAY
    pulls = [(config.num_pods - 1, config.horizon_seconds / 7)]
    if config.num_pods >= 2:
        pulls.append((config.num_pods - 2,
                      3 * config.horizon_seconds / 7))
    return incremental_rollout(config, pulls,
                               rollout_days=1.5 * horizon_days / 7,
                               straggler_delay_days=0.5 * horizon_days / 7,
                               name="deploy_week")


def _rolling_maintenance(config: FleetConfig) -> DeploymentSchedule:
    return rolling_maintenance(config)


SCHEDULES: dict[str, Callable[[FleetConfig], DeploymentSchedule]] = {
    "deploy_week": _deploy_week,
    "maintenance": _rolling_maintenance,
}


def schedule_names() -> list[str]:
    """Registered deployment-schedule names, sorted."""
    return sorted(SCHEDULES)


def schedule_for(name: str, config: FleetConfig) -> DeploymentSchedule:
    """Materialize a named schedule against one config."""
    if name not in SCHEDULES:
        raise ConfigurationError(
            f"unknown deployment schedule {name!r}; have "
            f"{schedule_names()}")
    return SCHEDULES[name](config)


# -- scenario runners ------------------------------------------------------------


def compare_deployment(config: FleetConfig, *,
                       schedule: DeploymentSchedule | None = None,
                       seed: int = 0,
                       strategy: PlacementStrategy | None = None
                       ) -> dict[str, FleetReport]:
    """OCS vs static under the same drain schedule, identical inputs.

    The deployment-scenario A/B: both policies lose exactly the same
    planned capacity (windows merge into the shared outage overlay),
    so the gap is pure reconfigure-around-drain — the OCS packs slices
    into whatever blocks remain; static wiring fragments around the
    holes.  `schedule=None` materializes the config's own
    `deploy_schedule` (falling back to `deploy_week`).
    """
    if schedule is None:
        schedule = schedule_for(config.deploy_schedule or "deploy_week",
                                config)
    simulator = FleetSimulator(config, seed=seed, windows=schedule.windows)
    return {
        "ocs": simulator.run(PlacementPolicy.OCS, strategy),
        "static": simulator.run(PlacementPolicy.STATIC, strategy),
    }
