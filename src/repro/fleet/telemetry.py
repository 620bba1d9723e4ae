"""Per-job and fleet-wide telemetry for fleet runs.

Goodput follows the paper's definition — the fraction of the machine's
block-time doing useful work — split from plain utilization (block-time
merely occupied) by the failure taxes: replayed work since the last
checkpoint, restore time, checkpoint writes, and (new with per-pod
fabric state) OCS reconfiguration latency spent rewiring a slice's
optical links before it can run.  The identity

    utilization = goodput + replay + restore + checkpoint + reconfig

is the load-bearing contract every accounting path preserves.

Machine-wide placement adds the trunk dimension: block-time on
cross-pod slices (`cross_pod_fraction`), trunk-port occupancy
(`trunk_utilization`), and the trunk-hop bandwidth tax.  The tax is
time a cross-pod slice spends waiting on trunk-hop links rather than
computing; it is part of the job's step time — the machine is busy
running the job, just on a worse topology — so it stays inside goodput,
with its size surfaced separately as `trunk_stall_fraction` (a subset
of goodput, not a sixth identity term).

The summary must stay well-formed JSON for any run, including an empty
one (zero jobs, zero horizon): every ratio is guarded so no NaN or
division-by-zero ever reaches the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Version of the flat summary dict's key set.  Emitted into every
#: summary as `schema_version` and asserted by the bench-regression
#: gate, so a summary-shape change that forgets to re-record baselines
#: fails loudly instead of silently comparing mismatched shapes.  Bump
#: when keys are added, removed, or change meaning.
SUMMARY_SCHEMA = 1


@dataclass(slots=True)
class JobRecord:
    """Lifetime telemetry of one job.

    Slotted: a large-fleet run materializes one record per job and the
    accounting hot path touches several fields per segment, so dropping
    the per-instance ``__dict__`` saves memory and a dict hop per
    access.
    """

    job_id: int
    kind: str
    priority: int
    blocks: int
    arrival: float
    work_seconds: float
    first_start: float | None = None
    completed_at: float | None = None
    useful_seconds: float = 0.0
    busy_seconds: float = 0.0
    trunk_stall_seconds: float = 0.0
    queue_waits: list[float] = field(default_factory=list)
    interruptions: int = 0
    preemptions: int = 0
    migrations: int = 0
    cross_pod_placements: int = 0

    @property
    def completed(self) -> bool:
        """True once the job finished all its work."""
        return self.completed_at is not None

    @property
    def first_wait(self) -> float | None:
        """Queue wait before the job first ran."""
        return self.queue_waits[0] if self.queue_waits else None


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    return float(np.percentile(values, fraction * 100,
                               method="inverted_cdf"))


def _fraction(numerator: float, denominator: float) -> float:
    """A guarded ratio: zero (not NaN/inf) when the denominator is zero."""
    return numerator / denominator if denominator > 0 else 0.0


@dataclass(slots=True)
class FleetTelemetry:
    """Aggregate accounting over one fleet run."""

    records: dict[int, JobRecord] = field(default_factory=dict)
    busy_block_seconds: float = 0.0
    useful_block_seconds: float = 0.0
    replay_block_seconds: float = 0.0
    restore_block_seconds: float = 0.0
    checkpoint_block_seconds: float = 0.0
    reconfig_block_seconds: float = 0.0
    cross_pod_block_seconds: float = 0.0
    trunk_stall_block_seconds: float = 0.0
    trunk_port_seconds: float = 0.0
    block_failures: int = 0
    spare_port_repairs: int = 0
    ocs_reconfigurations: int = 0
    circuits_programmed: int = 0
    trunk_circuits_programmed: int = 0
    #: Contention-resolution counters (machine-wide paths): victims
    #: evicted so a job bigger than one pod could span pods, donors
    #: checkpoint-migrated off the trunk layer to free its ports, and
    #: the trunk ports those two paths handed back to the budget.
    cross_pod_preemptions: int = 0
    trunk_freeing_migrations: int = 0
    trunk_ports_reclaimed: int = 0

    @property
    def preemption_events(self) -> int:
        """Total preemptions across jobs."""
        # detlint: ignore[D005] integer counters; order-free sum
        return sum(r.preemptions for r in self.records.values())

    @property
    def defrag_migrations(self) -> int:
        """Total defrag migrations, rolled up from per-job records."""
        # detlint: ignore[D005] integer counters; order-free sum
        return sum(r.migrations for r in self.records.values())

    @property
    def cross_pod_placements(self) -> int:
        """Total cross-pod slice starts, rolled up from per-job records."""
        # detlint: ignore[D005] integer counters; order-free sum
        return sum(r.cross_pod_placements for r in self.records.values())

    def record_for(self, job) -> JobRecord:
        """Get or create the record of a :class:`FleetJob`."""
        if job.job_id not in self.records:
            self.records[job.job_id] = JobRecord(
                job_id=job.job_id, kind=job.kind, priority=job.priority,
                blocks=job.blocks, arrival=job.arrival,
                work_seconds=job.work_seconds)
        return self.records[job.job_id]

    def summary(self, *, total_blocks: int, horizon_seconds: float,
                trunk_ports_total: int = 0) -> dict[str, float]:
        """Fleet-wide headline metrics as a flat, stable-keyed dict."""
        capacity = total_blocks * horizon_seconds
        records = list(self.records.values())
        # Every wait counts: first submissions AND requeues after
        # failures/preemptions, so policy-induced re-placement pain
        # (the static machine's weakness) shows up in the comparison.
        waits = [w for r in records for w in r.queue_waits]
        completed = [r for r in records if r.completed]
        never_ran = [r for r in records if r.first_start is None]
        out: dict[str, float] = {
            "schema_version": float(SUMMARY_SCHEMA),
            "jobs_submitted": float(len(records)),
            "jobs_completed": float(len(completed)),
            "jobs_unfinished": float(len(records) - len(completed)),
            "jobs_never_ran": float(len(never_ran)),
            "job_interruptions": float(
                sum(r.interruptions for r in records)),
            "job_preemptions": float(
                sum(r.preemptions for r in records)),
            "job_migrations": float(
                sum(r.migrations for r in records)),
            "job_cross_pod_placements": float(self.cross_pod_placements),
            "block_failures": float(self.block_failures),
            "spare_port_repairs": float(self.spare_port_repairs),
            "ocs_reconfigurations": float(self.ocs_reconfigurations),
            "circuits_programmed": float(self.circuits_programmed),
            "trunk_circuits_programmed": float(
                self.trunk_circuits_programmed),
            "cross_pod_preemptions": float(self.cross_pod_preemptions),
            "trunk_freeing_migrations": float(
                self.trunk_freeing_migrations),
            "trunk_ports_reclaimed": float(self.trunk_ports_reclaimed),
            "utilization": _fraction(self.busy_block_seconds, capacity),
            "goodput": _fraction(self.useful_block_seconds, capacity),
            "replay_fraction": _fraction(self.replay_block_seconds,
                                         capacity),
            "restore_fraction": _fraction(self.restore_block_seconds,
                                          capacity),
            "checkpoint_fraction": _fraction(self.checkpoint_block_seconds,
                                             capacity),
            "reconfig_fraction": _fraction(self.reconfig_block_seconds,
                                           capacity),
            "cross_pod_fraction": _fraction(self.cross_pod_block_seconds,
                                            self.busy_block_seconds),
            "trunk_stall_fraction": _fraction(
                self.trunk_stall_block_seconds, capacity),
            "trunk_utilization": _fraction(
                self.trunk_port_seconds,
                trunk_ports_total * horizon_seconds),
        }
        if waits:
            out["mean_queue_wait"] = sum(waits) / len(waits)
            out["median_queue_wait"] = _percentile(waits, 0.50)
            out["p95_queue_wait"] = _percentile(waits, 0.95)
            out["p99_queue_wait"] = _percentile(waits, 0.99)
            out["max_queue_wait"] = max(waits)
        else:
            out["mean_queue_wait"] = 0.0
            out["median_queue_wait"] = 0.0
            out["p95_queue_wait"] = 0.0
            out["p99_queue_wait"] = 0.0
            out["max_queue_wait"] = 0.0
        return out
