"""Named serving scenarios: which models a fleet serves, and how.

A :class:`ServeScenario` bundles the model traffic curves with the
control-loop knobs (tick cadence, utilization target, autoscaler lead,
replica floor).  Like deployment schedules
(:data:`repro.fleet.scenario.SCHEDULES`), scenarios register by name
and materialize against a config at use time, so a preset can say
``serve_scenario="surge"`` and every entry point (library, CLI,
sweeps) resolves the same curves from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.serve.traffic import ModelTraffic, SurgeWindow
from repro.units import DAY, HOUR


@dataclass(frozen=True)
class ServeScenario:
    """One named serving setup, materialized against a config.

    Attributes:
        name: registry key (and report label).
        models: traffic curves, one per served model.
        tick_seconds: control-loop cadence — accounting closes and the
            autoscaler acts once per tick.
        target_utilization: the autoscalers' sizing headroom; pools are
            sized so spun-up replicas sit at this utilization.
        lead_seconds: how far ahead the predictive policy looks.
        min_replicas: per-pool floor no policy scales below.
    """

    name: str
    models: tuple[ModelTraffic, ...]
    tick_seconds: float = 300.0
    target_utilization: float = 0.6
    lead_seconds: float = 1800.0
    min_replicas: int = 1

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigurationError("a serve scenario needs >= 1 model")
        if self.tick_seconds <= 0:
            raise ConfigurationError("tick_seconds must be > 0")
        if not 0.0 < self.target_utilization < 1.0:
            raise ConfigurationError(
                "target_utilization must be in (0, 1)")
        if self.lead_seconds < 0:
            raise ConfigurationError("lead_seconds must be >= 0")
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")


def _steady(config: FleetConfig) -> ServeScenario:
    """Two diurnal pools, no surges: the calm-week baseline."""
    return ServeScenario(
        name="steady",
        models=(
            ModelTraffic(name="ads-dlrm", peak_qps=6.0e7,
                         replica_chips=16, slo_seconds=1e-3),
            ModelTraffic(name="search-ranker", peak_qps=1.5e7,
                         replica_chips=32, slo_seconds=2e-3,
                         base_fraction=0.4,
                         phase_seconds=0.5 * DAY),
        ))


def _surge(config: FleetConfig) -> ServeScenario:
    """A 3x launch spike landing inside the deploy-week drain.

    The ads pool's surge opens exactly when `deploy_week` pulls the
    highest-id pod (1/7 into the horizon) and holds for 8 hours: the
    autoscaler must triple the pool while the fleet is down a pod.
    The second model keeps its ordinary counter-phased diurnal load so
    the surge competes for blocks instead of landing on an idle fleet.
    """
    surge_start = config.horizon_seconds / 7
    return ServeScenario(
        name="surge",
        models=(
            ModelTraffic(name="ads-dlrm", peak_qps=6.0e7,
                         replica_chips=16, slo_seconds=1e-3,
                         surges=(SurgeWindow(start=surge_start,
                                             end=surge_start + 8 * HOUR,
                                             multiplier=3.0),)),
            ModelTraffic(name="search-ranker", peak_qps=1.5e7,
                         replica_chips=32, slo_seconds=2e-3,
                         base_fraction=0.4,
                         phase_seconds=0.5 * DAY),
        ))


SCENARIOS: dict[str, Callable[[FleetConfig], ServeScenario]] = {
    "steady": _steady,
    "surge": _surge,
}


def scenario_names() -> list[str]:
    """Registered serve-scenario names, sorted."""
    return sorted(SCENARIOS)


def scenario_for(name: str, config: FleetConfig) -> ServeScenario:
    """Materialize a named serve scenario against one config."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown serve scenario {name!r}; have {scenario_names()}")
    return SCENARIOS[name](config)
