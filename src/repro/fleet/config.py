"""Configuration for a multi-pod fleet simulation.

A fleet is several TPU v4 pods (each a grid of 4x4x4 blocks joined by an
OCS fabric, Section 2.2) run as one discrete-event simulation: jobs
arrive, queue, get placed, fail, checkpoint-restart, and finish.  All
stochastic inputs derive from one integer seed through independent
:func:`repro.sim.rng.spawn_rngs` streams, so a run is reproducible and
the failure trace is identical across placement policies.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from repro.core.block import HOSTS_PER_BLOCK
from repro.core.scheduler import PlacementStrategy
from repro.errors import ConfigurationError
from repro.ocs.switch import PALOMAR_PORTS, SWITCH_TIME_SECONDS
from repro.units import DAY, HOUR, MINUTE

#: RNG stream indices carved out of the config seed (see spawn_rngs).
#: Appending streams is safe: SeedSequence.spawn derives children
#: independently, so adding STREAM_REPAIRS never perturbed the first
#: three streams or any pre-existing trace.
STREAM_ARRIVALS = 0
STREAM_SHAPES = 1
STREAM_FAILURES = 2
STREAM_REPAIRS = 3
NUM_STREAMS = 4

#: Most job arrivals, and most block outages, a config may expect.  A
#: run draws both streams in full before it starts, so a rate far past
#: every preset's (the busiest expects about 1,200 arrivals) would hang
#: set-up while memory grows.  The cap turns such a config away at once.
MAX_EXPECTED_EVENTS = 10**6


def _finite(value: int | float) -> bool:
    """`math.isfinite`, with an int past float range not finite: every
    sum or product that mixes it with a float would overflow."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: What a field's value must be, keyed by its annotation (a string here:
#: annotations are postponed), and how the error names it.  Bools are
#: ints to Python, so number fields turn them away explicitly; NaN or
#: infinite floats would hang the event loop or poison every sum, and
#: so would an int past float range, in either kind of field.
_FIELD_TYPES = {
    "float": (lambda value: isinstance(value, (int, float)) and
              not isinstance(value, bool) and _finite(value),
              "a finite number"),
    "int": (lambda value: isinstance(value, int) and
            not isinstance(value, bool) and _finite(value),
            "an int within float range"),
    "bool": (lambda value: type(value) is bool, "a bool"),
    "str": (lambda value: type(value) is str, "a string"),
    "PlacementStrategy": (lambda value: isinstance(value, PlacementStrategy),
                          "a placement strategy"),
}


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines one fleet scenario.

    Attributes:
        num_pods: pods in the fleet; each pod schedules independently but
            shares the arrival queue.
        blocks_per_pod: 4x4x4 blocks per pod; must be a perfect cube so
            the static-wiring baseline has a physical block grid.
        horizon_seconds: simulated wall-clock length of the run.
        arrival_window_seconds: jobs stop arriving after this point so
            late arrivals do not dominate the unfinished-job count.
        mean_interarrival_seconds: exponential job inter-arrival time.
        mean_job_seconds: mean useful work per training job (exponential).
        max_job_blocks: cap on sampled slice size, in blocks; the Table 2
            distribution is truncated and renormalized to shapes at or
            under the cap.  At or under `blocks_per_pod`, shapes are
            additionally filtered to block-grid extents that fit the
            pod's cubic grid so either placement policy can in principle
            host every job; above it the machine-wide mix is used —
            those jobs *must* span pods, which only an OCS machine with
            cross-pod placement enabled can serve.
        serving_fraction: share of arrivals that are serving deployments
            (forward-only DLRM residencies, Section 3.1) instead of
            training jobs.
        prod_fraction: share of training arrivals in the production
            priority band (the rest are best-effort batch).
        serving_qps: fleet QPS target used to size each serving slice via
            :func:`repro.models.serving.chips_for_qps`.
        mean_serving_seconds: mean residency of one serving deployment.
        host_mtbf_seconds: per-host MTBF; a block (16 hosts) fails at
            16x this rate, the Section 1 "everything must work" regime.
        mean_repair_seconds: exponential block repair time.
        checkpoint_seconds: cost of writing one checkpoint.
        restore_seconds: detect + reschedule + reload after a failure.
        preempt_priority: jobs at or above this priority may preempt
            lower-priority running jobs when no free placement exists.
        strategy: default placement strategy (first_fit, best_fit, or
            defrag); a :class:`FleetSimulator.run` call may override it.
        reconfig_base_seconds: fixed drain/validate window of one OCS
            reconfiguration batch — light-level checks before the slice's
            links carry traffic.  Zero models PR 1's instantaneous
            placement.
        ocs_switch_seconds: per-mirror-move time of one switch, defaulting
            to the Palomar's "switch in milliseconds"
            (:data:`repro.ocs.switch.SWITCH_TIME_SECONDS`).  Switches run
            in parallel; moves on one switch serialize.
        defrag_max_moves: migrations one defragmentation may trigger;
            0 makes the defrag strategy place exactly like best_fit.
        cross_pod: allow slices whose block demand exceeds one pod to be
            placed across pods over the machine-level trunk OCS layer
            (OCS policy only — a statically-cabled machine physically
            cannot span pods).  Disabling it reproduces the per-pod-only
            scheduler bit for bit.
        trunk_ports: block-level trunk fibers each pod terminates on the
            machine OCS bank; every cross-pod block adjacency holds one
            port on both endpoint pods for the life of the slice.
        cross_pod_preemption: allow machine-wide contention resolution
            for jobs whose block demand exceeds one pod: a preemptor
            may assemble a *cross-pod* placement out of evictions
            (candidate victims credited hypothetically — their blocks
            per pod, plus the trunk ports a cross-pod victim would
            hand back — and evicted only once a victim set yields a
            real machine-wide plan), and the defrag strategy may
            checkpoint-migrate cross-pod donors into snugger
            placements to free trunk ports.  Disabling it reproduces
            the pod-local contention behavior of earlier PRs, where
            oversized jobs under pressure could only queue.
        trunk_bandwidth_tax: fractional slowdown of a slice whose links
            all ride the trunk layer; an actual placement pays the tax
            scaled by its cross-link share, modeling the bisection hit
            of leaving the pod.
        trunk_reconfig_seconds: extra drain/validate window a rewiring
            pays when it programs trunk circuits (light checked end to
            end across two pod fabrics and the machine bank).
        spare_ports: spare OCS ports per pod kept "for link testing and
            repairs" (Section 2.2), at most one Palomar switch's 136; an
            optical-port failure with a spare free is repaired by one
            mirror move instead of waiting out a full block repair.
        optical_failure_fraction: share of block outages that are
            optical-port failures (fiber/transceiver) rather than host
            hardware, and thus spare-port repairable.  Zero keeps the
            failure trace identical to the pre-repair model.
        port_repair_seconds: block downtime of a spare-port repair — the
            mirror move plus light-level validation, orders of magnitude
            under `mean_repair_seconds`.
        deploy_schedule: name of a deployment-drain schedule from
            :data:`repro.fleet.scenario.SCHEDULES` to overlay on runs
            of this config ('' = none).  The name is resolved at use
            time (CLI/experiments) so configs stay a plain data layer;
            recorded traces store the materialized windows, never the
            name.
        obs_sample_every_seconds: sim-time cadence of the time-series
            sampler (free blocks per pod, trunk-port occupancy, queue
            depth, running jobs) of a run given a recorder (see
            :meth:`repro.fleet.simulator.FleetSimulator.run`).
        serve_scenario: name of an online-serving traffic scenario from
            :data:`repro.fleet.serve.SCENARIOS` to run on top of this
            config ('' = no request-level serving tier).  Like
            `deploy_schedule`, the name resolves at use time so the
            config stays a plain data layer; the scenario defines the
            served models, their diurnal QPS curves, surge windows, and
            SLO targets.
        serve_autoscaler: autoscaler policy for the serving tier —
            "reactive" (size pools to current demand), "predictive"
            (size to demand one lead-time ahead on the known curve),
            "scheduled" (precomputed per-hour plan), or "static"
            (peak-pinned pools, the capacity-split baseline).  Ignored
            when `serve_scenario` is ''.
    """

    num_pods: int = 2
    blocks_per_pod: int = 64
    horizon_seconds: float = 2 * DAY
    arrival_window_seconds: float = 1.5 * DAY
    mean_interarrival_seconds: float = 8 * MINUTE
    mean_job_seconds: float = 6 * HOUR
    max_job_blocks: int = 16
    serving_fraction: float = 0.1
    prod_fraction: float = 0.3
    serving_qps: float = 2e7
    mean_serving_seconds: float = 1 * DAY
    host_mtbf_seconds: float = 120 * DAY
    mean_repair_seconds: float = 4 * HOUR
    checkpoint_seconds: float = 30.0
    restore_seconds: float = 8 * MINUTE
    preempt_priority: int = 2
    strategy: PlacementStrategy = PlacementStrategy.FIRST_FIT
    reconfig_base_seconds: float = 30.0
    ocs_switch_seconds: float = SWITCH_TIME_SECONDS
    defrag_max_moves: int = 3
    cross_pod: bool = True
    trunk_ports: int = 48
    cross_pod_preemption: bool = True
    trunk_bandwidth_tax: float = 0.1
    trunk_reconfig_seconds: float = 15.0
    spare_ports: int = 8
    optical_failure_fraction: float = 0.0
    port_repair_seconds: float = 300.0
    deploy_schedule: str = ""
    serve_scenario: str = ""
    serve_autoscaler: str = "reactive"
    obs_sample_every_seconds: float = 15 * MINUTE

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):  # accept CLI/preset spellings
            try:
                object.__setattr__(self, "strategy",
                                   PlacementStrategy(self.strategy))
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown placement strategy {self.strategy!r}; have "
                    f"{[s.value for s in PlacementStrategy]}") from exc
        for spec in dataclasses.fields(self):
            valid, kind = _FIELD_TYPES[spec.type]
            value = getattr(self, spec.name)
            if not valid(value):
                raise ConfigurationError(
                    f"{spec.name} must be {kind}, got {value!r}")
        # The sign first: a negative number's cube root is complex.
        if self.blocks_per_pod < 1 or \
                round(self.blocks_per_pod ** (1 / 3)) ** 3 != \
                self.blocks_per_pod:
            raise ConfigurationError(
                f"blocks_per_pod must be a positive perfect cube, got "
                f"{self.blocks_per_pod}")
        if self.num_pods < 1:
            raise ConfigurationError("need at least one pod")
        if self.horizon_seconds <= 0 or self.arrival_window_seconds <= 0:
            raise ConfigurationError("horizon and arrival window must be > 0")
        if self.arrival_window_seconds > self.horizon_seconds:
            raise ConfigurationError(
                "arrival window cannot outlive the horizon")
        if self.mean_interarrival_seconds <= 0 or self.mean_job_seconds <= 0:
            raise ConfigurationError("timing means must be > 0")
        if not 0.0 <= self.serving_fraction <= 1.0:
            raise ConfigurationError("serving_fraction must be in [0, 1]")
        if not 0.0 <= self.prod_fraction <= 1.0:
            raise ConfigurationError("prod_fraction must be in [0, 1]")
        if self.max_job_blocks < 1 or self.max_job_blocks > self.total_blocks:
            raise ConfigurationError(
                f"max_job_blocks must be in [1, {self.total_blocks}]")
        if self.host_mtbf_seconds <= 0 or self.mean_repair_seconds <= 0:
            raise ConfigurationError("MTBF and repair time must be > 0")
        if self.checkpoint_seconds <= 0:
            raise ConfigurationError(
                "checkpoint_seconds must be > 0 (Young/Daly needs a "
                "finite optimal interval)")
        if self.restore_seconds < 0:
            raise ConfigurationError("restore_seconds must be >= 0")
        if self.serving_fraction > 0 and self.serving_qps <= 0:
            raise ConfigurationError("serving_qps must be > 0")
        if self.mean_serving_seconds <= 0:
            raise ConfigurationError("mean_serving_seconds must be > 0")
        if self.reconfig_base_seconds < 0 or self.ocs_switch_seconds < 0:
            raise ConfigurationError(
                "reconfiguration latencies must be >= 0")
        if self.defrag_max_moves < 0:
            raise ConfigurationError("defrag_max_moves must be >= 0")
        if self.trunk_ports < 0:
            raise ConfigurationError("trunk_ports must be >= 0")
        if self.trunk_bandwidth_tax < 0:
            raise ConfigurationError("trunk_bandwidth_tax must be >= 0")
        if self.trunk_reconfig_seconds < 0:
            raise ConfigurationError("trunk_reconfig_seconds must be >= 0")
        if not 0 <= self.spare_ports <= PALOMAR_PORTS:
            raise ConfigurationError(
                f"spare_ports must be in [0, {PALOMAR_PORTS}] (one Palomar "
                f"switch), got {self.spare_ports}")
        if not 0.0 <= self.optical_failure_fraction <= 1.0:
            raise ConfigurationError(
                "optical_failure_fraction must be in [0, 1]")
        if self.port_repair_seconds < 0:
            raise ConfigurationError("port_repair_seconds must be >= 0")
        if self.serve_autoscaler not in (
                "reactive", "predictive", "scheduled", "static"):
            raise ConfigurationError(
                f"serve_autoscaler must be one of 'reactive', "
                f"'predictive', 'scheduled', or 'static', got "
                f"{self.serve_autoscaler!r}")
        if self.obs_sample_every_seconds <= 0:
            raise ConfigurationError(
                "obs_sample_every_seconds must be > 0")
        arrivals = self.arrival_window_seconds / \
            self.mean_interarrival_seconds
        if arrivals > MAX_EXPECTED_EVENTS:
            raise ConfigurationError(
                f"expected job arrivals (arrival_window_seconds / "
                f"mean_interarrival_seconds) are {arrivals:.3g}, over "
                f"the {MAX_EXPECTED_EVENTS:,} cap")
        # Horizon over block MTBF, per block.  Written over the host
        # MTBF: a subnormal one underflows block_mtbf_seconds to 0.0.
        # A float from the first factor on, so a huge product is inf,
        # not an int too large to convert.
        outages = float(self.num_pods) * self.blocks_per_pod * \
            HOSTS_PER_BLOCK * self.horizon_seconds / self.host_mtbf_seconds
        if outages > MAX_EXPECTED_EVENTS:
            raise ConfigurationError(
                f"expected block outages (total_blocks * horizon_seconds "
                f"/ block_mtbf_seconds) are {outages:.3g}, over the "
                f"{MAX_EXPECTED_EVENTS:,} cap")

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain JSON-safe dict (strategy as its value).

        The round-trip contract is lossless:
        ``FleetConfig.from_dict(c.to_dict()) == c`` for every valid
        config, byte-identical through ``json.dumps`` as well — every
        field is an int, float, bool, or str once the strategy enum is
        flattened to its spelling.
        """
        out = dataclasses.asdict(self)
        out["strategy"] = self.strategy.value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetConfig":
        """Build a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigurationError` instead of being
        silently dropped — a typo'd override should fail loudly, not
        quietly run the default.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FleetConfig key(s) {unknown}; have "
                f"{sorted(known)}")
        return cls(**data)

    def with_overrides(self, **overrides: Any) -> "FleetConfig":
        """A copy with the named fields replaced, validated end to end.

        The public spelling of ``dataclasses.replace`` for this config:
        unknown field names raise :class:`ConfigurationError` (replace
        raises a bare TypeError), and the copy re-runs
        ``__post_init__`` so an override can never smuggle in an
        invalid combination.
        """
        if not overrides:
            return self
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FleetConfig field(s) {unknown}; have "
                f"{sorted(known)}")
        return dataclasses.replace(self, **overrides)

    @property
    def total_blocks(self) -> int:
        """Blocks across every pod."""
        return self.num_pods * self.blocks_per_pod

    @property
    def pod_grid_side(self) -> int:
        """Side of a pod's cubic block grid (4 for a 64-block pod)."""
        return round(self.blocks_per_pod ** (1 / 3))

    @property
    def machine_wide_jobs(self) -> bool:
        """True when the job mix may demand more blocks than one pod."""
        return self.max_job_blocks > self.blocks_per_pod

    @property
    def trunk_capacity(self) -> int:
        """Trunk ports installed across every pod."""
        return self.num_pods * self.trunk_ports

    @property
    def block_mtbf_seconds(self) -> float:
        """MTBF of one block: any of its 16 hosts down takes it out."""
        return self.host_mtbf_seconds / HOSTS_PER_BLOCK
