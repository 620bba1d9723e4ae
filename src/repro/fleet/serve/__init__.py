"""Online serving tier: request traffic and autoscaling on fleet slices.

The request layer above block residency (Section 3.1's "serving
deployments that last for extended periods", scaled to the ROADMAP's
"millions of users"): open-loop arrivals follow per-model diurnal QPS
curves (:mod:`repro.fleet.serve.traffic`), each model's replica pool
maps onto real fleet slices (:mod:`repro.fleet.serve.pool`) held by
``kind="serve"`` :class:`~repro.fleet.workload.FleetJob` s, and an
autoscaler policy family (:mod:`repro.fleet.serve.autoscaler`) grows
and shrinks pools by submitting/cancelling those jobs through the
actual scheduler — so traffic surges contend with training for blocks
and trunk ports.

Latency is analytic, not per-request: millions of QPS cannot be one
event each, so each control tick closes an M/M/1-style interval per
pool — utilization from ready replicas, a shifted-exponential response
model for p50/p99 and SLO attainment — keeping serve runs exactly
deterministic (byte-identical per seed).  The tier's chip-second accounting reconciles
through the existing utilization identity: every replica-second it
reports is a ``busy_seconds`` segment the scheduler banked.

Quickstart::

    from repro.fleet import preset_config, compare_autoscalers
    reports = compare_autoscalers(preset_config("serve_surge"), seed=0)
    print(reports["reactive"].serve.render())
    assert reports["reactive"].serve.summary["slo_attainment_per_chip"] \
        > reports["static"].serve.summary["slo_attainment_per_chip"]
"""

from repro.fleet.serve.autoscaler import AUTOSCALERS, desired_replicas
from repro.fleet.serve.pool import ReplicaPool
from repro.fleet.serve.scenarios import (SCENARIOS, ServeScenario,
                                         scenario_for, scenario_names)
from repro.fleet.serve.tier import (SERVE_SCHEMA, ServeReport, ServingTier,
                                    reconciliation_residual)
from repro.fleet.serve.traffic import ModelTraffic, SurgeWindow

__all__ = [
    "AUTOSCALERS", "desired_replicas",
    "ReplicaPool",
    "SCENARIOS", "ServeScenario", "scenario_for", "scenario_names",
    "SERVE_SCHEMA", "ServeReport", "ServingTier",
    "ModelTraffic", "SurgeWindow",
    "compare_autoscalers", "reconciliation_residual",
]


def compare_autoscalers(config, *, seed: int = 0,
                        autoscalers=AUTOSCALERS):
    """Run one serve config under each autoscaler; reports by policy.

    The A/B behind the capacity-split benchmark: same traffic, same
    outage draws, same deployment schedule — only the scaling policy
    varies.  Returns ``{policy: FleetReport}`` with ``.serve`` filled.
    """
    # Lazy: the simulator imports this package for its serve hooks.
    from repro.fleet.scenario import schedule_for
    from repro.fleet.simulator import FleetSimulator, PlacementPolicy
    reports = {}
    for policy in autoscalers:
        tuned = config.with_overrides(serve_autoscaler=policy)
        windows = schedule_for(tuned.deploy_schedule, tuned).windows \
            if tuned.deploy_schedule else ()
        simulator = FleetSimulator(tuned, seed=seed, windows=windows)
        reports[policy] = simulator.run(PlacementPolicy.OCS)
    return reports
