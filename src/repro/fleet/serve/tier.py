"""The serving-tier controller: ticks, analytic latency, the report.

The tier runs on a fixed control cadence.  Each tick closes the
interval since the last one — per pool, an M/M/1-style evaluation at
the interval's midpoint arrival rate against the replicas that were
spun up by the interval's end — then lets the autoscaler resize every
pool by submitting or cancelling real scheduler jobs; one dispatch per
tick then places whatever it submitted or freed.

Latency is analytic because the traffic is open-loop at millions of
QPS: per interval, requests see a shifted-exponential response ``T =
L0 + Exp(L0·ρ̂/(1-ρ̂))`` (service time plus M/M/1 queueing delay), so
SLO attainment is a closed form and run-level p50/p99 come from
bisecting the request-weighted mixture CDF over every interval.  When
demand exceeds ready capacity (ρ > 1) the excess is shed and counted
against the SLO — overload never hides inside a finite queue.

Everything the tier reports reconciles with the scheduler's books: a
replica's chip-seconds are its job record's ``busy_seconds`` (banked
by the same segment accounting that feeds the utilization identity),
so :func:`reconciliation_residual` can check the whole chain to float
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.serve.autoscaler import AUTOSCALERS, desired_replicas
from repro.fleet.serve.pool import ReplicaPool
from repro.fleet.serve.scenarios import ServeScenario
from repro.fleet.telemetry import FleetTelemetry

#: Version of the serve summary dict's key set (the base fleet summary
#: keeps its own SUMMARY_SCHEMA — serve telemetry is additive, never a
#: reshape of the digest-gated summary).
SERVE_SCHEMA = 1

#: Utilization cap inside the latency model: at or over 1.0 the
#: steady-state queue diverges, so the wait is evaluated at this bound
#: while the diverging excess is shed explicitly.
_RHO_MAX = 0.999

#: Response times past L0 + 60 mean waits carry ~e-60 of the mass;
#: the bisection bracket ends there.
_TAIL_MEANS = 60.0


def _mixture_quantile(samples: list[tuple[float, float, float]],
                      fraction: float) -> float:
    """The `fraction` quantile of a weighted shifted-exponential mix.

    `samples` rows are ``(weight, base, wait)``: `weight` requests saw
    ``T = base + Exp(wait)`` (`wait` 0 means exactly `base`).  The
    mixture CDF is monotone, so the quantile is a bisection.

    Each CDF step runs the elementwise operations of the plain formula
    ``1 - exp(-max(x - base, 0) / wait)``, in its order, in one
    preallocated buffer: a row with a positive wait and ``x < base``
    gets ``exp(-0.0) == 1.0`` there, exactly the formula's tail, and a
    row without a positive wait is set by index.  Two layouts keep
    every bit of the result: `weights` stays the strided column view
    of `rows` (a contiguous copy changes the dot product's summation
    order, and with it the last bits of the quantile), and `exp` runs
    on the contiguous float64 buffer.
    """
    if not samples:
        return 0.0
    rows = np.asarray(samples, dtype=np.float64)
    weights, bases, waits = rows[:, 0], rows[:, 1], rows[:, 2]
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    lo = float(bases.min())
    hi = float((bases + np.maximum(waits, 0.0) * _TAIL_MEANS).max())
    safe_waits = np.where(waits > 0, waits, 1.0)
    bases = np.ascontiguousarray(bases)
    flat = np.flatnonzero(~(waits > 0))  # exactly `base`: no tail
    flat_bases = bases[flat]
    buf = np.empty_like(bases)

    def cdf(x: float) -> float:
        np.subtract(x, bases, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.negative(buf, out=buf)
        np.divide(buf, safe_waits, out=buf)
        np.exp(buf, out=buf)
        if flat.size:
            buf[flat] = np.where(x >= flat_bases, 0.0, 1.0)
        np.subtract(1.0, buf, out=buf)
        return float(weights @ buf) / total

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # The bracket can no longer move, so every later step, and
            # the final midpoint, would land on this same value.
            return mid
        if cdf(mid) < fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class ServeReport:
    """Serving-tier outcome of one fleet run (rides FleetReport.serve)."""

    scenario: str
    autoscaler: str
    tick_seconds: float
    #: Flat fleet-wide serve metrics (stable keys, SERVE_SCHEMA).
    summary: dict[str, float]
    #: Per-pool metrics, keyed by model name.
    pools: dict[str, dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable serving block."""
        s = self.summary
        lines = [
            f"serving tier: scenario={self.scenario} "
            f"autoscaler={self.autoscaler} "
            f"pools={len(self.pools)} tick={self.tick_seconds:.0f}s",
            f"  requests: {s['requests_total']:.3e} offered, "
            f"{s['requests_served']:.3e} served, "
            f"{s['requests_shed']:.3e} shed",
            f"  SLO: attainment {s['slo_attainment']:.6f}  "
            f"violations {s['slo_violation_fraction']:.6f}  "
            f"p50 {s['p50_latency_seconds'] * 1e3:.3f}ms  "
            f"p99 {s['p99_latency_seconds'] * 1e3:.3f}ms",
            f"  capacity: {s['serving_chip_seconds']:.3e} chip-seconds "
            f"({s['serving_block_seconds']:.3e} block-seconds), "
            f"SLO-attained requests per chip-second "
            f"{s['slo_attainment_per_chip']:.1f}",
            f"  scaling: {s['scale_ups']:.0f} ups, "
            f"{s['scale_downs']:.0f} downs, peak "
            f"{s['replicas_peak']:.0f} replicas, "
            f"{s['replica_interruptions']:.0f} failover interruptions",
        ]
        for name in sorted(self.pools):
            pool = self.pools[name]
            lines.append(
                f"  pool {name}: {pool['replicas_initial']:.0f} -> peak "
                f"{pool['replicas_peak']:.0f} -> "
                f"{pool['replicas_final']:.0f} replicas "
                f"x{pool['replica_chips']:.0f} chips, attainment "
                f"{pool['slo_attainment']:.6f}, p99 "
                f"{pool['p99_latency_seconds'] * 1e3:.3f}ms")
        return "\n".join(lines)


class ServingTier:
    """Owns the pools and drives them on the control cadence."""

    def __init__(self, scenario: ServeScenario, config: FleetConfig,
                 scheduler: FleetScheduler, *, base_job_id: int,
                 autoscaler: str | None = None) -> None:
        self.scenario = scenario
        self.config = config
        self.scheduler = scheduler
        self.autoscaler = autoscaler if autoscaler is not None \
            else config.serve_autoscaler
        if self.autoscaler not in AUTOSCALERS:
            raise ConfigurationError(
                f"unknown autoscaler {self.autoscaler!r}; have "
                f"{list(AUTOSCALERS)}")
        self.pools = [ReplicaPool(model, config.horizon_seconds)
                      for model in scenario.models]
        self._next_id = base_job_id
        self._last_tick: float | None = None
        #: Per-pool accounting: offered/served/shed/in-SLO request
        #: counts and the (weight, base, wait) latency mixture samples.
        self._totals = {pool.traffic.name:
                        {"total": 0.0, "served": 0.0, "shed": 0.0,
                         "in_slo": 0.0}
                        for pool in self.pools}
        self._samples: dict[str, list[tuple[float, float, float]]] = {
            pool.traffic.name: [] for pool in self.pools}

    def _alloc_id(self) -> int:
        job_id = self._next_id
        self._next_id += 1
        return job_id

    def tick_times(self, horizon: float) -> list[float]:
        """Control instants: 0, tick, 2·tick, ..., and the horizon.

        The horizon always closes the last interval so chip-second and
        request accounting cover the whole run.
        """
        times: list[float] = []
        k = 0
        while True:
            t = k * self.scenario.tick_seconds
            if t >= horizon:
                break
            times.append(t)
            k += 1
        times.append(horizon)
        return times

    # -- per-interval accounting -------------------------------------------------

    def _account(self, pool: ReplicaPool, t0: float, t1: float) -> None:
        """Close one pool's interval [t0, t1) analytically."""
        dt = t1 - t0
        rate = pool.traffic.qps_at(0.5 * (t0 + t1))
        arrivals = rate * dt
        if arrivals <= 0:
            return
        totals = self._totals[pool.traffic.name]
        totals["total"] += arrivals
        ready = pool.ready_count(t1)
        if ready == 0:
            # Nothing spun up: every request of the interval is shed
            # (and an SLO miss) — the failover window's worst case.
            totals["shed"] += arrivals
            return
        rho = rate / (ready * pool.replica_qps)
        served = arrivals if rho <= 1.0 else arrivals / rho
        totals["served"] += served
        totals["shed"] += arrivals - served
        rho_hat = min(rho, _RHO_MAX)
        wait = pool.base_latency * rho_hat / (1.0 - rho_hat)
        slo = pool.traffic.slo_seconds
        if slo < pool.base_latency:
            in_slo = 0.0
        elif wait <= 0.0:
            in_slo = served
        else:
            in_slo = served * (1.0 - math.exp(
                -(slo - pool.base_latency) / wait))
        totals["in_slo"] += in_slo
        self._samples[pool.traffic.name].append(
            (served, pool.base_latency, wait))

    # -- the control tick --------------------------------------------------------

    def on_tick(self, now: float) -> None:
        """Close the last interval and resize every pool (no dispatch).

        The caller owns the one dispatch that follows, so scaling many
        pools never pays more than one placement sweep.
        """
        if self._last_tick is not None and now > self._last_tick:
            for pool in self.pools:
                self._account(pool, self._last_tick, now)
        obs = self.scheduler.obs
        for pool in self.pools:
            desired = desired_replicas(
                self.autoscaler, pool, now,
                target_utilization=self.scenario.target_utilization,
                min_replicas=self.scenario.min_replicas,
                lead_seconds=self.scenario.lead_seconds)
            current = len(pool.replicas)
            if desired > current:
                pool.grow(desired - current, now, self._alloc_id,
                          self.scheduler._enqueue)
                obs.instant("serve_scale_up", now,
                            model=pool.traffic.name, replicas=desired)
            elif desired < current:
                pool.shrink(current - desired, self.scheduler.cancel)
                obs.instant("serve_scale_down", now,
                            model=pool.traffic.name, replicas=desired)
        if self._last_tick is None:
            for pool in self.pools:
                pool.initial_replicas = len(pool.replicas)
        self._last_tick = now

    def install(self, sim, horizon: float) -> None:
        """Schedule the control cadence on the run's simulator.

        Installed after arrivals and outages so a tick at time t sees
        the state after every same-time event (the kernel's
        insertion-order tie-break), and each tick runs one dispatch
        for whatever it submitted or freed.
        """
        def fire(now: float) -> None:
            self.on_tick(now)
            self.scheduler.dispatch()

        for t in self.tick_times(horizon):
            sim.schedule_at(t, lambda now=t: fire(now))

    # -- the report --------------------------------------------------------------

    def _pool_report(self, pool: ReplicaPool,
                     telemetry: FleetTelemetry) -> dict[str, float]:
        name = pool.traffic.name
        totals = self._totals[name]
        samples = self._samples[name]
        busy = sum(telemetry.records[job_id].busy_seconds
                   for job_id in sorted(pool.job_ids))
        interruptions = sum(telemetry.records[job_id].interruptions
                            for job_id in sorted(pool.job_ids))
        total, in_slo = totals["total"], totals["in_slo"]
        chip_seconds = busy * pool.chips
        return {
            "replica_chips": float(pool.chips),
            "replica_blocks": float(pool.blocks),
            "replica_qps": pool.replica_qps,
            "base_latency_seconds": pool.base_latency,
            "slo_seconds": pool.traffic.slo_seconds,
            "requests_total": total,
            "requests_served": totals["served"],
            "requests_shed": totals["shed"],
            "requests_in_slo": in_slo,
            "slo_attainment": in_slo / total if total > 0 else 0.0,
            "p50_latency_seconds": _mixture_quantile(samples, 0.50),
            "p99_latency_seconds": _mixture_quantile(samples, 0.99),
            "chip_seconds": chip_seconds,
            "block_seconds": busy * pool.blocks,
            "slo_attainment_per_chip":
                in_slo / chip_seconds if chip_seconds > 0 else 0.0,
            "replicas_initial": float(pool.initial_replicas),
            "replicas_peak": float(pool.peak_replicas),
            "replicas_final": float(len(pool.replicas)),
            "scale_ups": float(pool.scale_ups),
            "scale_downs": float(pool.scale_downs),
            "interruptions": float(interruptions),
        }

    def report(self, telemetry: FleetTelemetry) -> ServeReport:
        """Build the run's serve report after the scheduler finalized."""
        pools = {pool.traffic.name: self._pool_report(pool, telemetry)
                 for pool in self.pools}
        rows = list(pools.values())
        total = sum(r["requests_total"] for r in rows)
        served = sum(r["requests_served"] for r in rows)
        in_slo = sum(r["requests_in_slo"] for r in rows)
        chip_seconds = sum(r["chip_seconds"] for r in rows)
        merged = [sample for pool in self.pools
                  for sample in self._samples[pool.traffic.name]]
        summary = {
            "schema_version": float(SERVE_SCHEMA),
            "requests_total": total,
            "requests_served": served,
            "requests_shed": sum(r["requests_shed"] for r in rows),
            "requests_in_slo": in_slo,
            "slo_attainment": in_slo / total if total > 0 else 0.0,
            "slo_violation_fraction":
                1.0 - in_slo / total if total > 0 else 0.0,
            "p50_latency_seconds": _mixture_quantile(merged, 0.50),
            "p99_latency_seconds": _mixture_quantile(merged, 0.99),
            "serving_chip_seconds": chip_seconds,
            "serving_block_seconds":
                sum(r["block_seconds"] for r in rows),
            "slo_attainment_per_chip":
                in_slo / chip_seconds if chip_seconds > 0 else 0.0,
            "scale_ups": sum(r["scale_ups"] for r in rows),
            "scale_downs": sum(r["scale_downs"] for r in rows),
            "replicas_peak": sum(r["replicas_peak"] for r in rows),
            "replica_interruptions":
                sum(r["interruptions"] for r in rows),
        }
        return ServeReport(
            scenario=self.scenario.name, autoscaler=self.autoscaler,
            tick_seconds=self.scenario.tick_seconds,
            summary=summary, pools=pools)


def reconciliation_residual(report) -> float:
    """Largest accounting residual tying serve telemetry to the identity.

    Two checks, both normalized to fleet capacity so the bound is a
    dimensionless fraction:

    * the utilization identity itself — ``utilization = goodput +
      replay + restore + checkpoint + reconfig`` from the summary;
    * the busy ledger — per-job ``busy_seconds`` (the serve tier's
      chip-second source) re-summed over every record must reproduce
      the summary's ``utilization``.

    Serve chip-seconds are a pure re-grouping of the same records, so
    these two residuals bound the serving telemetry's drift from the
    identity.  Every run holds this at or under 1e-9.
    """
    summary = report.summary
    identity = abs(summary["utilization"] - (
        summary["goodput"] + summary["replay_fraction"] +
        summary["restore_fraction"] + summary["checkpoint_fraction"] +
        summary["reconfig_fraction"]))
    capacity = report.config.total_blocks * \
        report.config.horizon_seconds
    busy = sum(record.busy_seconds * record.blocks
               for record in report.job_records)
    ledger = abs(busy / capacity - summary["utilization"]) \
        if capacity > 0 else 0.0
    return max(identity, ledger)
