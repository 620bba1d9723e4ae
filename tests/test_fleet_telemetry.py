"""Tests for fleet telemetry aggregation."""

import pytest

from repro.fleet.telemetry import FleetTelemetry, JobRecord, _percentile
from repro.fleet.workload import FleetJob


class TestPercentile:
    def test_nearest_rank_definition(self):
        values = [float(i) for i in range(1, 101)]
        assert _percentile(values, 0.95) == 95.0
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 1.0) == 100.0

    def test_small_lists(self):
        assert _percentile([3.0], 0.95) == 3.0
        # ceil(0.95 * 2) = 2 -> the 2nd smallest.
        assert _percentile([1.0, 2.0], 0.95) == 2.0
        # ceil(0.5 * 2) = 1 -> the smallest.
        assert _percentile([1.0, 2.0], 0.5) == 1.0


class TestSummary:
    def _job(self, job_id, blocks_shape=(4, 4, 4)):
        return FleetJob(job_id=job_id, kind="train", model_type="LLM",
                        shape=blocks_shape, arrival=0.0,
                        work_seconds=100.0, priority=0)

    def test_empty_fleet(self):
        telemetry = FleetTelemetry()
        summary = telemetry.summary(total_blocks=64,
                                    horizon_seconds=1000.0)
        assert summary["jobs_submitted"] == 0
        assert summary["goodput"] == 0.0
        assert summary["mean_queue_wait"] == 0.0

    def test_requeue_waits_counted(self):
        telemetry = FleetTelemetry()
        record = telemetry.record_for(self._job(0))
        record.first_start = 0.0
        record.queue_waits.extend([0.0, 10.0])  # submit + requeue
        summary = telemetry.summary(total_blocks=64,
                                    horizon_seconds=1000.0)
        assert summary["mean_queue_wait"] == 5.0
        assert summary["max_queue_wait"] == 10.0

    def test_record_for_is_idempotent(self):
        telemetry = FleetTelemetry()
        job = self._job(0)
        first = telemetry.record_for(job)
        first.queue_waits.append(5.0)
        assert telemetry.record_for(job) is first

    def test_zero_capacity_summary_is_wellformed_json(self):
        # A run with zero horizon (or zero blocks) must produce finite
        # numbers, never NaN/inf from a zero-capacity division.
        import json
        import math
        telemetry = FleetTelemetry()
        telemetry.busy_block_seconds = 50.0  # even with accrued time
        for summary in (
                telemetry.summary(total_blocks=64, horizon_seconds=0.0),
                telemetry.summary(total_blocks=0, horizon_seconds=100.0),
                FleetTelemetry().summary(total_blocks=0,
                                         horizon_seconds=0.0)):
            text = json.dumps(summary, allow_nan=False)  # must not raise
            assert all(math.isfinite(v)
                       for v in json.loads(text).values())
            assert summary["utilization"] == 0.0
            assert summary["goodput"] == 0.0
            assert summary["reconfig_fraction"] == 0.0

    def test_zero_completed_jobs_summary(self):
        telemetry = FleetTelemetry()
        record = telemetry.record_for(self._job(0))
        assert record.completed is False
        summary = telemetry.summary(total_blocks=64,
                                    horizon_seconds=1000.0)
        assert summary["jobs_completed"] == 0.0
        assert summary["jobs_unfinished"] == 1.0
        assert summary["mean_queue_wait"] == 0.0
        assert summary["p95_queue_wait"] == 0.0

    def test_reconfig_and_migration_counters_roll_up(self):
        telemetry = FleetTelemetry()
        telemetry.ocs_reconfigurations = 3
        telemetry.circuits_programmed = 144
        record = telemetry.record_for(self._job(0))
        record.migrations = 2
        telemetry.reconfig_block_seconds = 50.0
        summary = telemetry.summary(total_blocks=1,
                                    horizon_seconds=100.0)
        assert summary["ocs_reconfigurations"] == 3.0
        assert summary["circuits_programmed"] == 144.0
        assert summary["job_migrations"] == 2.0
        assert summary["reconfig_fraction"] == pytest.approx(0.5)

    def test_contention_counters_reach_the_summary(self):
        telemetry = FleetTelemetry()
        telemetry.cross_pod_preemptions = 4
        telemetry.trunk_freeing_migrations = 2
        telemetry.trunk_ports_reclaimed = 28
        summary = telemetry.summary(total_blocks=8,
                                    horizon_seconds=100.0)
        assert summary["cross_pod_preemptions"] == 4.0
        assert summary["trunk_freeing_migrations"] == 2.0
        assert summary["trunk_ports_reclaimed"] == 28.0
        # Present (and zero) in the empty summary too — JSON consumers
        # never branch on key existence.
        empty = FleetTelemetry().summary(total_blocks=0,
                                         horizon_seconds=0.0)
        for key in ("cross_pod_preemptions", "trunk_freeing_migrations",
                    "trunk_ports_reclaimed"):
            assert empty[key] == 0.0

    def test_job_counters_roll_up(self):
        telemetry = FleetTelemetry()
        done = telemetry.record_for(self._job(0))
        done.first_start = 1.0
        done.queue_waits.append(1.0)
        done.completed_at = 50.0
        waiting = telemetry.record_for(self._job(1))
        summary = telemetry.summary(total_blocks=64,
                                    horizon_seconds=1000.0)
        assert summary["jobs_submitted"] == 2
        assert summary["jobs_completed"] == 1
        assert summary["jobs_unfinished"] == 1
        assert summary["jobs_never_ran"] == 1
        assert summary["mean_queue_wait"] == 1.0
        assert isinstance(waiting, JobRecord)
