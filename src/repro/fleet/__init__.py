"""Fleet simulator: a multi-pod TPU v4 cluster as one discrete-event run.

The operational layer above single-machine scheduling: job streams
sampled from the measured Table 2 slice mix (plus Section 3.1 serving
residencies), a fleet-wide priority scheduler with preemption, block
failures and repairs replayed identically across placement policies,
checkpoint-restart accounting, and an online serving tier
(:mod:`repro.fleet.serve`) that autoscales per-model replica pools
against diurnal request traffic — producing the goodput, utilization,
queue-wait, and SLO telemetry behind the paper's Section 2.5/Figure 4
operational claims.

Every run executes on one engine and replays byte-identically per
seed (digest-gated): OCS rewirings are charged from memoized plan
prices, and the per-pod switch banks are programmed only while the
scheduler's invariant checks are on.

The package facade (``__all__`` below) is the supported public API —
the config, the simulator/report surface, presets, the comparison
helpers, and the serving-tier entry points.  Deeper names
(schedulers, fabrics, trace/obs codecs) remain
importable from their defining modules; they are implementation
surface, stable only module-by-module.

Quickstart::

    from repro.fleet import compare_policies, preset_config
    reports = compare_policies(preset_config("small"), seed=0)
    print(reports["ocs"].render())
    assert reports["ocs"].summary["goodput"] > \
        reports["static"].summary["goodput"]
"""

from repro.fleet.config import FleetConfig
from repro.fleet.cluster import FleetState, Pod
from repro.fleet.fabric import PodFabric, ReconfigPlan
from repro.fleet.failures import (BlockOutage, DrainWindow,
                                  apply_spare_repairs, build_failure_trace,
                                  drained_block_seconds, overlay_windows,
                                  spare_repair_count)
from repro.fleet.machine import (MachineFabric, MachinePlan, PlanPrice,
                                 PricedPlan, plan_price)
from repro.fleet.obs import (DispatchProfiler, MetricsSampler, ObsRecorder,
                             dumps_chrome_trace, dumps_obs, load_obs,
                             loads_obs, render_report, save_obs,
                             validate_chrome_trace)
from repro.fleet.presets import PRESETS, preset_config, preset_names
from repro.fleet.scenario import (DeploymentSchedule, SCHEDULES,
                                  compare_deployment, incremental_rollout,
                                  rolling_maintenance, schedule_for,
                                  schedule_names)
from repro.fleet.scheduler import ActiveJob, FleetScheduler
from repro.fleet.simulator import (FleetReport, FleetSimulator,
                                   compare_cross_pod, compare_policies,
                                   compare_preemption, compare_strategies,
                                   run_fleet)
from repro.fleet.sweep import SweepResult, run_sweep, sweep_mean
from repro.fleet.telemetry import FleetTelemetry, JobRecord
from repro.fleet.trace import (FleetTrace, TRACE_VERSION, dumps_trace,
                               load_trace, loads_trace, record_trace,
                               save_trace, trace_of, validate_trace)
from repro.fleet.workload import (FleetJob, TraceWorkload, generate_jobs,
                                  hostile_background_mix, model_type_mix,
                                  serving_shape, truncated_slice_mix)
# Imported last: the serve package reaches back into scheduler/workload
# (and its compare helper lazily into the simulator).
from repro.fleet.serve import (AUTOSCALERS, ModelTraffic, SERVE_SCHEMA,
                               ReplicaPool, SCENARIOS, ServeReport,
                               ServeScenario, ServingTier, SurgeWindow,
                               compare_autoscalers,
                               reconciliation_residual, scenario_for,
                               scenario_names)

#: The curated public API: one config type, the simulator and its
#: report, presets/scenarios by name, the run/compare entry points, and
#: the serving tier's surface.  Everything else in the package is
#: reachable by deep import but deliberately not re-exported here.
__all__ = [
    # configuration
    "FleetConfig",
    # running and reporting
    "FleetSimulator", "FleetReport", "run_fleet",
    # presets and named overlays
    "PRESETS", "preset_config", "preset_names",
    "SCHEDULES", "schedule_for", "schedule_names",
    # comparison entry points (the paper's A/Bs)
    "compare_policies", "compare_strategies", "compare_preemption",
    "compare_cross_pod", "compare_deployment", "compare_autoscalers",
    # multi-seed ensembles
    "run_sweep", "sweep_mean", "SweepResult",
    # record/replay
    "record_trace", "save_trace", "load_trace", "trace_of",
    # the serving tier
    "AUTOSCALERS", "SCENARIOS", "SERVE_SCHEMA", "ModelTraffic",
    "ReplicaPool", "ServeReport", "ServeScenario", "ServingTier",
    "SurgeWindow", "reconciliation_residual", "scenario_for",
    "scenario_names",
]
