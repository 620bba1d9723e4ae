"""The fleet simulator: one discrete-event run of a multi-pod fleet.

Ties the subsystem together on the :mod:`repro.sim.events` kernel: a
seeded job stream (:mod:`repro.fleet.workload`) arrives into the
priority scheduler (:mod:`repro.fleet.scheduler`) while a precomputed
outage trace (:mod:`repro.fleet.failures`) knocks blocks out and
repairs them.  Because workload and failures come from independent RNG
streams spawned off one seed, the same trace can be replayed under the
OCS and static placement policies — the fleet-scale version of the
Figure 4 comparison — and, orthogonally, under any placement strategy
(first_fit, best_fit, defrag), all on byte-identical inputs.

OCS runs carry live machine-wide fabric state: every placement rewires
its pods' switches — and, for cross-pod slices, holds ports on the
machine-level trunk bank — paying reconfiguration latency on its
critical path and a trunk-hop bandwidth tax while running, so the
flexibility-vs-latency tradeoff of Section 2.2 shows up in the
telemetry at machine scale.
The failure trace may route optical-port outages through spare-port
repair (Section 2.2's "link testing and repairs") before the run
starts, keeping traces policy-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.fleet.cluster import FleetState
from repro.fleet.config import (FleetConfig, NUM_STREAMS, STREAM_ARRIVALS,
                                STREAM_FAILURES, STREAM_REPAIRS,
                                STREAM_SHAPES)
from repro.fleet.failures import (BlockOutage, DrainWindow,
                                  build_failure_trace,
                                  downtime_block_seconds,
                                  drained_block_seconds, overlay_windows,
                                  spare_repair_count)
from repro.fleet.obs.metrics import MetricsSampler
from repro.fleet.obs.profiler import DispatchProfiler
from repro.fleet.obs.tracer import NULL_RECORDER, ObsRecorder
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.telemetry import FleetTelemetry, JobRecord
from repro.fleet.workload import FleetJob, TraceWorkload, generate_jobs
from repro.sim.events import Simulator
from repro.sim.rng import spawn_rngs
from repro.units import HOUR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace -> here)
    from repro.fleet.serve.tier import ServeReport
    from repro.fleet.trace import FleetTrace

#: Anything that yields a job stream under the generate_jobs calling
#: convention: the synthetic Table 2 generator itself, or a
#: :class:`repro.fleet.workload.TraceWorkload` replaying a recording.
JobSource = Callable[..., "list[FleetJob]"]


@dataclass
class FleetReport:
    """Outcome of one fleet run under one placement policy + strategy."""

    policy: PlacementPolicy
    strategy: PlacementStrategy
    config: FleetConfig
    seed: int
    summary: dict[str, float]
    events_fired: int
    downtime_fraction: float
    #: Capacity share the deployment schedule drained (0 for plain runs).
    drain_fraction: float = 0.0
    #: Per-job lifetime records, for per-class analysis (e.g. the
    #: 48-block goodput gate); the JSON-facing summary stays flat.
    job_records: tuple[JobRecord, ...] = ()
    #: The run's observability log when `run` was given a recorder;
    #: None otherwise.  Export via :mod:`repro.fleet.obs`.
    obs: ObsRecorder | None = None
    #: Serving-tier telemetry when the config names a `serve_scenario`;
    #: None otherwise.  Lives beside the base summary (its own
    #: SERVE_SCHEMA) so the digest-gated SUMMARY_SCHEMA never moves.
    serve: ServeReport | None = None

    def goodput_for_blocks(self, blocks: int) -> float:
        """Goodput of one job class — jobs of exactly `blocks` blocks.

        Useful block-seconds the class banked, over the whole machine's
        capacity.  A class that never runs scores 0 regardless of what
        the rest of the fleet achieved.  Note this counts each job's
        *useful-progress credit* only: the trunk-stall time that the
        summary's `goodput` bucket additionally carries for cross-pod
        slices is excluded, so per-class values sum to slightly under
        `summary["goodput"]` when the bandwidth tax is nonzero.
        """
        capacity = self.config.total_blocks * self.config.horizon_seconds
        useful = sum(record.useful_seconds * record.blocks
                     for record in self.job_records
                     if record.blocks == blocks)
        return useful / capacity if capacity > 0 else 0.0

    def render(self) -> str:
        """Human-readable report block."""
        lines = [
            f"fleet run: policy={self.policy.value} "
            f"strategy={self.strategy.value} seed={self.seed} "
            f"pods={self.config.num_pods}x{self.config.blocks_per_pod} "
            f"blocks horizon={self.config.horizon_seconds / HOUR:.0f}h",
            f"  jobs: {self.summary['jobs_submitted']:.0f} submitted, "
            f"{self.summary['jobs_completed']:.0f} completed, "
            f"{self.summary['jobs_unfinished']:.0f} unfinished",
            f"  goodput {self.summary['goodput']:.3f}  "
            f"utilization {self.summary['utilization']:.3f}  "
            f"(capacity lost to outages {self.downtime_fraction:.3f})",
            f"  queue wait: mean {self.summary['mean_queue_wait'] / HOUR:.2f}h"
            f"  p95 {self.summary['p95_queue_wait'] / HOUR:.2f}h"
            f"  p99 {self.summary['p99_queue_wait'] / HOUR:.2f}h",
            f"  failures {self.summary['block_failures']:.0f}  "
            f"interruptions {self.summary['job_interruptions']:.0f}  "
            f"preemptions {self.summary['job_preemptions']:.0f}  "
            f"migrations {self.summary['job_migrations']:.0f}",
            f"  OCS rewiring: {self.summary['ocs_reconfigurations']:.0f} "
            f"reconfigurations, "
            f"{self.summary['circuits_programmed']:.0f} circuits, "
            f"{self.summary['reconfig_fraction']:.4f} of capacity",
            f"  cross-pod: "
            f"{self.summary['job_cross_pod_placements']:.0f} placements, "
            f"{self.summary['cross_pod_fraction']:.3f} of busy "
            f"block-time, trunk util "
            f"{self.summary['trunk_utilization']:.3f}, stall "
            f"{self.summary['trunk_stall_fraction']:.4f}",
            f"  contention: "
            f"{self.summary['cross_pod_preemptions']:.0f} cross-pod "
            f"preemption evictions, "
            f"{self.summary['trunk_freeing_migrations']:.0f} "
            f"trunk-freeing migrations, "
            f"{self.summary['trunk_ports_reclaimed']:.0f} trunk ports "
            f"reclaimed",
            f"  repairs: {self.summary['spare_port_repairs']:.0f} of "
            f"{self.summary['block_failures']:.0f} outages absorbed by "
            f"spare ports",
            f"  lost fractions: replay "
            f"{self.summary['replay_fraction']:.4f}  restore "
            f"{self.summary['restore_fraction']:.4f}  checkpoint writes "
            f"{self.summary['checkpoint_fraction']:.4f}",
        ]
        if self.drain_fraction > 0:
            lines.append(
                f"  deployment: {self.drain_fraction:.3f} of capacity "
                f"drained by the rollout schedule")
        if self.serve is not None:
            lines.append(self.serve.render())
        return "\n".join(lines)


@dataclass
class FleetSimulator:
    """Builds and runs one fleet scenario end to end.

    Inputs are pluggable: `workload` may be any :data:`JobSource` — by
    default the synthetic Table 2 generator, or a
    :class:`~repro.fleet.workload.TraceWorkload` replaying a recorded
    stream — and `failure_trace` may replace the drawn outage trace
    with a recorded one.  `windows` overlays planned deployment drains
    (:class:`~repro.fleet.failures.DrainWindow`) onto the failure
    trace, so multi-day rollout scenarios ride the same event loop and
    the same utilization identity as plain runs.
    """

    config: FleetConfig
    seed: int = 0
    workload: JobSource | None = None
    failure_trace: Sequence[BlockOutage] | None = None
    windows: Sequence[DrainWindow] = ()
    jobs: list[FleetJob] = field(init=False)
    trace: list[BlockOutage] = field(init=False)

    def __post_init__(self) -> None:
        rngs = spawn_rngs(self.seed, NUM_STREAMS)
        source: JobSource = self.workload if self.workload is not None \
            else generate_jobs
        self.jobs = list(source(self.config,
                                arrival_rng=rngs[STREAM_ARRIVALS],
                                shape_rng=rngs[STREAM_SHAPES]))
        self.trace = list(self.failure_trace) \
            if self.failure_trace is not None else \
            build_failure_trace(self.config, rngs[STREAM_FAILURES],
                                repair_rng=rngs[STREAM_REPAIRS])
        self.windows = tuple(self.windows)

    @classmethod
    def from_trace(cls, trace: FleetTrace, *,
                   config: FleetConfig | None = None,
                   windows: Sequence[DrainWindow] | None = None
                   ) -> FleetSimulator:
        """A simulator replaying a recorded trace instead of fresh draws.

        The trace's config and seed carry over (`config` overrides for
        replay-under-different-knobs studies — the job stream and the
        outage trace stay exactly as recorded either way), and the
        trace's deployment windows overlay unless `windows` replaces
        them.
        """
        return cls(config if config is not None else trace.config,
                   seed=trace.seed,
                   workload=TraceWorkload(tuple(trace.jobs)),
                   failure_trace=trace.outages,
                   windows=trace.windows if windows is None else windows)

    def run(self, policy: PlacementPolicy,
            strategy: PlacementStrategy | None = None, *,
            recorder: ObsRecorder | None = None,
            profiler: DispatchProfiler | None = None) -> FleetReport:
        """Simulate the scenario under `policy`/`strategy` and report.

        The job stream and outage trace are fixed at construction, so
        calling `run` repeatedly with different policies or strategies
        compares them on identical inputs.  `strategy=None` uses the
        config's default.  OCS runs get a live machine fabric; a static
        machine has no switches to program.  Deployment windows are
        merged into the down/up event sequence here — with none, the
        merged trace IS the failure trace, byte for byte.

        `recorder` records the run's observability log (spans, the
        scheduler decision log, time-series samples; see
        :mod:`repro.fleet.obs`) and is the only switch for it: None
        records nothing.  `profiler` instruments the dispatch loop
        with wall-clock counters (see
        :class:`~repro.fleet.obs.profiler.DispatchProfiler`).  Neither
        changes any result — the scheduler runs the same path with or
        without them — but the sampler's ticks do grow `events_fired`.
        """
        strategy = strategy if strategy is not None else \
            self.config.strategy
        horizon = self.config.horizon_seconds
        if recorder is None:
            recorder = NULL_RECORDER
        sim = Simulator()
        state = FleetState(self.config.num_pods, self.config.blocks_per_pod,
                           with_fabric=policy is PlacementPolicy.OCS,
                           trunk_ports=self.config.trunk_ports)
        telemetry = FleetTelemetry()
        scheduler = FleetScheduler(self.config, policy, sim, state,
                                   telemetry, strategy=strategy,
                                   obs=recorder)
        outages = overlay_windows(self.trace, self.windows)
        # Counted after the drain overlay: a spare repair swallowed by
        # a drain window no longer bounds any downtime in the run
        # actually simulated, so it must not be reported.
        telemetry.spare_port_repairs = spare_repair_count(outages)
        for job in self.jobs:
            sim.schedule_at(job.arrival,
                            lambda j=job: scheduler.submit(j))
        for outage in outages:
            sim.schedule_at(
                outage.start,
                lambda o=outage: scheduler.on_block_down(o.pod_id,
                                                         o.block_id))
            sim.schedule_at(
                outage.end,
                lambda o=outage: scheduler.on_block_up(o.pod_id,
                                                       o.block_id))
        tier = None
        if self.config.serve_scenario:
            # Lazy: the serve package imports scheduler/workload from
            # this package, and its compare helper imports back here.
            from repro.fleet.serve.scenarios import scenario_for
            from repro.fleet.serve.tier import ServingTier
            scenario = scenario_for(self.config.serve_scenario,
                                    self.config)
            tier = ServingTier(
                scenario, self.config, scheduler,
                base_job_id=1 + max((job.job_id for job in self.jobs),
                                    default=-1))
            # Installed after arrivals and outages: a tick at time t
            # scales against the capacity left after every same-time
            # outage/drain event (insertion-order tie-break).
            tier.install(sim, horizon)
        if recorder.enabled:
            recorder.meta.update({
                "policy": policy.value, "strategy": strategy.value,
                "seed": self.seed, "num_pods": self.config.num_pods,
                "blocks_per_pod": self.config.blocks_per_pod,
                "horizon_seconds": horizon,
                "sample_every_seconds":
                    self.config.obs_sample_every_seconds})
            for window in self.windows:
                recorder.instant("drain_start", window.start,
                                 pod_id=window.pod_id,
                                 block_id=window.block_id)
                recorder.instant("drain_end", window.end,
                                 pod_id=window.pod_id,
                                 block_id=window.block_id)
            # Installed after arrivals and outages so a sample at time
            # t sees the state after every same-time event (the
            # kernel's insertion-order tie-break).
            MetricsSampler(
                recorder, scheduler, state,
                self.config.obs_sample_every_seconds).install(sim, horizon)
        if profiler is not None:
            profiler.install(scheduler, sim)
        began = time.perf_counter()
        sim.run(until=horizon)
        if profiler is not None:
            profiler.run_seconds += time.perf_counter() - began
        scheduler.finalize(horizon)
        capacity = self.config.total_blocks * horizon
        trunk_total = self.config.trunk_capacity \
            if policy is PlacementPolicy.OCS else 0
        # Per-block interval union, clamped to the horizon: overlapping
        # or outage-coincident windows on one block drain it once, so
        # the fraction can never exceed what the schedule held out.
        drained = drained_block_seconds(self.windows, horizon)
        summary = telemetry.summary(
            total_blocks=self.config.total_blocks,
            horizon_seconds=horizon,
            trunk_ports_total=trunk_total)
        # The deployment overlay's own capacity demand, next to the
        # failure taxes (0.0 for plain runs — the key is always there
        # so JSON consumers never branch on its presence).
        summary["drain_fraction"] = drained / capacity
        return FleetReport(
            policy=policy, strategy=strategy, config=self.config,
            seed=self.seed,
            summary=summary,
            events_fired=sim.events_fired,
            downtime_fraction=downtime_block_seconds(outages) / capacity,
            drain_fraction=drained / capacity,
            job_records=tuple(telemetry.records.values()),
            obs=recorder if recorder.enabled else None,
            serve=tier.report(telemetry) if tier is not None else None)


def run_fleet(config: FleetConfig, *, seed: int = 0,
              policy: PlacementPolicy = PlacementPolicy.OCS,
              strategy: PlacementStrategy | None = None) -> FleetReport:
    """One-shot convenience wrapper around :class:`FleetSimulator`."""
    return FleetSimulator(config, seed=seed).run(policy, strategy)


def compare_policies(config: FleetConfig, *,
                     seed: int = 0) -> dict[str, FleetReport]:
    """OCS and static runs over the same jobs and the same outage trace."""
    simulator = FleetSimulator(config, seed=seed)
    return {
        "ocs": simulator.run(PlacementPolicy.OCS),
        "static": simulator.run(PlacementPolicy.STATIC),
    }


def compare_strategies(config: FleetConfig, *, seed: int = 0,
                       policy: PlacementPolicy = PlacementPolicy.OCS
                       ) -> dict[str, FleetReport]:
    """All placement strategies over identical jobs and outage trace.

    Keys are the strategy values ('first_fit', 'best_fit', 'defrag'),
    all run under `policy` (OCS by default — defrag's migrations need a
    fabric that can rewire).
    """
    simulator = FleetSimulator(config, seed=seed)
    return {strategy.value: simulator.run(policy, strategy)
            for strategy in PlacementStrategy}


def compare_preemption(config: FleetConfig, *, seed: int = 0,
                       strategy: PlacementStrategy | None = None,
                       workload: JobSource | None = None
                       ) -> dict[str, FleetReport]:
    """OCS runs with machine-wide preemption on and off, same inputs.

    The contention A/B: `cross_pod_preemption` gates only how the
    scheduler resolves contention (evictions are decisions, not
    inputs), so both runs replay byte-identical job streams and outage
    traces — disabled reproduces the pod-local contention behavior
    where oversized jobs can only queue.  `workload` plugs in an
    adversarial stream (e.g. :func:`~repro.fleet.workload.
    hostile_background_mix`) in place of the Table 2 generator.
    """
    enabled = config.with_overrides(cross_pod_preemption=True)
    disabled = config.with_overrides(cross_pod_preemption=False)
    return {
        "preemption": FleetSimulator(
            enabled, seed=seed, workload=workload).run(
                PlacementPolicy.OCS, strategy),
        "queueing": FleetSimulator(
            disabled, seed=seed, workload=workload).run(
                PlacementPolicy.OCS, strategy),
    }


def compare_cross_pod(config: FleetConfig, *, seed: int = 0,
                      strategy: PlacementStrategy | None = None
                      ) -> dict[str, FleetReport]:
    """OCS runs with and without cross-pod placement, identical inputs.

    The machine-wide A/B: job generation and the failure trace never
    depend on the `cross_pod` flag, so both runs replay byte-identical
    streams — the only difference is whether jobs larger than a pod can
    ride the trunk layer or must queue forever.
    """
    enabled = config.with_overrides(cross_pod=True)
    disabled = config.with_overrides(cross_pod=False)
    return {
        "cross_pod": FleetSimulator(enabled, seed=seed).run(
            PlacementPolicy.OCS, strategy),
        "single_pod": FleetSimulator(disabled, seed=seed).run(
            PlacementPolicy.OCS, strategy),
    }
