"""Tests for the fleet scheduler: queueing, preemption, interrupts,
placement strategies, reconfiguration latency, and defragmentation."""

import json
from types import MethodType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.fleet import FleetSimulator, preset_config
from repro.fleet.cluster import FleetState
from repro.fleet.config import FleetConfig
from repro.fleet.obs import ObsRecorder
from repro.fleet.scheduler import ActiveJob, FleetScheduler
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.workload import (FleetJob, PRIORITY_BATCH,
                                  PRIORITY_PROD, PRIORITY_SERVING)
from repro.sim.events import Simulator


def _make(policy=PlacementPolicy.OCS, num_pods=1, blocks_per_pod=8,
          **overrides):
    overrides.setdefault("max_job_blocks", blocks_per_pod)
    config = FleetConfig(num_pods=num_pods, blocks_per_pod=blocks_per_pod,
                         **overrides)
    sim = Simulator()
    state = FleetState(num_pods, blocks_per_pod,
                       with_fabric=policy is PlacementPolicy.OCS,
                       trunk_ports=config.trunk_ports)
    telemetry = FleetTelemetry()
    return FleetScheduler(config, policy, sim, state, telemetry)


def _train(job_id, shape, arrival, work, priority=PRIORITY_BATCH):
    return FleetJob(job_id=job_id, kind="train", model_type="LLM",
                    shape=shape, arrival=arrival, work_seconds=work,
                    priority=priority)


def _serve(job_id, shape, arrival, work):
    return FleetJob(job_id=job_id, kind="serve", model_type="MLP/DLRM",
                    shape=shape, arrival=arrival, work_seconds=work,
                    priority=PRIORITY_SERVING)


class TestLifecycle:
    def test_place_run_complete(self):
        scheduler = _make()
        job = _train(0, (4, 4, 8), 0.0, 3600.0)
        scheduler.submit(job)
        assert scheduler.running and not scheduler.queue
        scheduler.sim.run()
        record = scheduler.telemetry.records[0]
        assert record.completed
        assert record.first_wait == 0.0
        # Useful work is exactly the job's demand, on 2 blocks.
        assert scheduler.telemetry.useful_block_seconds == \
            pytest.approx(3600.0 * 2)
        assert record.useful_seconds == pytest.approx(3600.0)
        assert scheduler.telemetry.busy_block_seconds >= \
            scheduler.telemetry.useful_block_seconds

    def test_queueing_when_full(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))  # whole pod
        scheduler.submit(_train(1, (4, 4, 4), 0.0, 500.0))
        assert len(scheduler.queue) == 1
        scheduler.sim.run()
        second = scheduler.telemetry.records[1]
        assert second.completed
        assert second.first_wait > 0.0

    def test_backfill_skips_stuck_head(self):
        scheduler = _make()
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 1000.0))   # 4 blocks
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 1000.0))   # 2 blocks
        # An 8-block job queues; a 1-block job backfills past it.
        scheduler.submit(_train(2, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(3, (4, 4, 4), 0.0, 100.0))
        assert 3 in scheduler.running
        assert 2 not in scheduler.running


class TestPreemption:
    def test_serving_evicts_batch(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 5000.0))  # fills pod
        scheduler.submit(_serve(1, (4, 4, 4), 0.0, 2000.0))
        assert 1 in scheduler.running
        victim = scheduler.telemetry.records[0]
        assert victim.preemptions == 1
        assert scheduler.telemetry.preemption_events == 1
        # The victim is requeued, not lost.
        assert any(a.job.job_id == 0 for a in scheduler.queue)

    def test_batch_cannot_preempt(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 5000.0))
        scheduler.submit(_train(1, (4, 4, 4), 0.0, 100.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.preemption_events == 0

    def test_equal_priority_cannot_preempt(self):
        scheduler = _make()
        scheduler.submit(_serve(0, (8, 8, 8), 0.0, 5000.0))
        scheduler.submit(_serve(1, (8, 8, 8), 0.0, 100.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.preemption_events == 0

    def test_only_victims_in_the_placement_are_evicted(self):
        # Pod layout: batch job 0 holds blocks {0,1}, serving fills
        # {2,3,4}, batch job 4 holds {5}, serving fills {6,7}.  A
        # 2-block serving arrival plans over victims [job4, job0] (job4
        # started later) but the placement lands on {0,1} — job 4 is a
        # bystander and must keep running.
        scheduler = _make()
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 9000.0))
        for i in (1, 2, 3):
            scheduler.submit(_serve(i, (4, 4, 4), 0.0, 9000.0))
        scheduler.sim.run(until=1.0)
        scheduler.submit(_train(4, (4, 4, 4), 1.0, 9000.0))
        for i in (5, 6):
            scheduler.submit(_serve(i, (4, 4, 4), 1.0, 9000.0))
        assert scheduler.state.pods[0].num_free == 0
        scheduler.submit(_serve(7, (4, 4, 8), 1.0, 100.0))
        assert 7 in scheduler.running
        assert 4 in scheduler.running  # bystander untouched
        assert scheduler.telemetry.records[0].preemptions == 1
        assert scheduler.telemetry.records[4].preemptions == 0
        assert scheduler.telemetry.preemption_events == 1

    def test_no_pointless_eviction_under_static(self):
        # Fail every block except the two opposite corners (ids 0 and 7
        # in the 2x2x2 grid, never adjacent).  Evicting the batch job on
        # block 0 could only yield scattered singles, never the 2-block
        # cuboid serving needs — so the planner must not evict at all.
        scheduler = _make(policy=PlacementPolicy.STATIC)
        scheduler.submit(_train(0, (4, 4, 4), 0.0, 5000.0))  # block 0
        for block in (1, 2, 3, 4, 5, 6):
            scheduler.on_block_down(0, block)
        scheduler.submit(_serve(1, (4, 4, 8), 0.0, 100.0))
        assert scheduler.telemetry.preemption_events == 0
        assert scheduler.telemetry.records[0].preemptions == 0
        assert 0 in scheduler.running


class TestInterrupts:
    def test_block_failure_requeues_and_finishes(self):
        scheduler = _make()
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 10000.0))
        held = list(scheduler.running[0].blocks)
        scheduler.sim.schedule(7000.0,
                               lambda: scheduler.on_block_down(0, held[0]))
        scheduler.sim.schedule(8000.0,
                               lambda: scheduler.on_block_up(0, held[0]))
        scheduler.sim.run()
        record = scheduler.telemetry.records[0]
        assert record.interruptions == 1
        assert record.completed
        assert scheduler.telemetry.block_failures == 1
        assert scheduler.telemetry.replay_block_seconds > 0
        assert scheduler.telemetry.restore_block_seconds > 0

    def test_failure_on_idle_block_is_harmless(self):
        scheduler = _make()
        scheduler.on_block_down(0, 5)
        assert scheduler.telemetry.block_failures == 1
        scheduler.on_block_up(0, 5)

    def test_serving_loses_no_work_on_failure(self):
        scheduler = _make()
        scheduler.submit(_serve(0, (4, 4, 4), 0.0, 10000.0))
        held = list(scheduler.running[0].blocks)
        scheduler.sim.schedule(4000.0,
                               lambda: scheduler.on_block_down(0, held[0]))
        scheduler.sim.schedule(4100.0,
                               lambda: scheduler.on_block_up(0, held[0]))
        scheduler.sim.run()
        assert scheduler.telemetry.replay_block_seconds == 0.0
        assert scheduler.telemetry.records[0].completed


class TestFinalize:
    def test_running_work_credited_at_horizon(self):
        scheduler = _make()
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 1e6))  # never finishes
        scheduler.sim.run(until=50000.0)
        scheduler.finalize(50000.0)
        telemetry = scheduler.telemetry
        assert telemetry.busy_block_seconds == pytest.approx(2 * 50000.0)
        assert 0 < telemetry.useful_block_seconds < \
            telemetry.busy_block_seconds
        assert not telemetry.records[0].completed


class TestReconfiguration:
    def test_latency_charged_on_critical_path(self):
        # Identical job, identical fabric, only the latency knobs
        # differ: the completion gap must be exactly the plan latency.
        slow = _make(reconfig_base_seconds=100.0, ocs_switch_seconds=1.0)
        fast = _make(reconfig_base_seconds=0.0, ocs_switch_seconds=0.0)
        for scheduler in (slow, fast):
            scheduler.submit(_train(0, (4, 4, 8), 0.0, 1000.0))
            scheduler.sim.run()
        gap = slow.telemetry.records[0].completed_at - \
            fast.telemetry.records[0].completed_at
        assert gap == pytest.approx(100.0 + 1.0 * 2)  # base + 2 mirror moves
        # The whole charge lands on 2 blocks of reconfig time.
        assert slow.telemetry.reconfig_block_seconds == \
            pytest.approx(102.0 * 2)
        assert slow.telemetry.ocs_reconfigurations == 1
        assert slow.telemetry.circuits_programmed == 96

    def test_sub_block_serving_needs_no_rewiring(self):
        scheduler = _make()
        scheduler.submit(_serve(0, (2, 2, 4), 0.0, 500.0))
        assert scheduler.running[0].pending_reconfig == 0.0
        scheduler.sim.run()
        assert scheduler.telemetry.ocs_reconfigurations == 0
        assert scheduler.telemetry.reconfig_block_seconds == 0.0

    def test_static_machine_never_reconfigures(self):
        scheduler = _make(policy=PlacementPolicy.STATIC)
        assert all(pod.fabric is None for pod in scheduler.state.pods)
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 1000.0))
        scheduler.sim.run()
        assert scheduler.telemetry.ocs_reconfigurations == 0
        assert scheduler.telemetry.reconfig_block_seconds == 0.0

    def test_fabric_wired_while_running_released_after(self):
        scheduler = _make()
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 1000.0))
        fabric = scheduler.state.pods[0].fabric
        assert fabric.live_circuits == 96  # 48 per block
        scheduler.sim.run()
        assert fabric.live_circuits == 0

    def test_interrupt_mid_reconfig_loses_only_reconfig_time(self):
        scheduler = _make(reconfig_base_seconds=500.0)
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 1000.0))
        held = list(scheduler.running[0].blocks)
        # Fail a block while the fabric is still rewiring.
        scheduler.sim.schedule(100.0,
                               lambda: scheduler.on_block_down(0, held[0]))
        scheduler.sim.run(until=150.0)
        record = scheduler.telemetry.records[0]
        assert record.interruptions == 1
        assert record.useful_seconds == 0.0
        assert scheduler.telemetry.reconfig_block_seconds == \
            pytest.approx(100.0 * 2)
        assert scheduler.telemetry.replay_block_seconds == 0.0


class TestStrategies:
    def _shape_free(self, scheduler, pod_id, down):
        for block in down:
            scheduler.on_block_down(pod_id, block)

    def test_first_fit_takes_lowest_pod_id(self):
        scheduler = _make(num_pods=2)
        self._shape_free(scheduler, 1, range(6))  # pod1: 2 free (snug)
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 100.0))
        assert scheduler.running[0].pod_id == 0

    def test_best_fit_takes_tightest_pod(self):
        scheduler = _make(num_pods=2, strategy="best_fit")
        assert scheduler.strategy is PlacementStrategy.BEST_FIT
        self._shape_free(scheduler, 1, range(6))  # pod1: 2 free (snug)
        scheduler.submit(_train(0, (4, 4, 8), 0.0, 100.0))
        assert scheduler.running[0].pod_id == 1

    def _fragmented_fleet(self, **overrides):
        """Two pods, each half-busy: 4+4 free, no room for an 8."""
        scheduler = _make(num_pods=2,
                          strategy=overrides.pop("strategy", "defrag"),
                          **overrides)
        self._shape_free(scheduler, 1, range(4, 8))
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 50000.0))   # -> pod 1
        assert scheduler.running[0].pod_id == 1
        scheduler.submit(_train(1, (4, 8, 8), 0.0, 50000.0))   # -> pod 0
        assert scheduler.running[1].pod_id == 0
        for block in range(4, 8):
            scheduler.on_block_up(1, block)
        assert [pod.num_free for pod in scheduler.state.pods] == [4, 4]
        return scheduler

    def test_defrag_migrates_to_compact_free_blocks(self):
        scheduler = self._fragmented_fleet()
        scheduler.submit(_train(2, (8, 8, 8), 1.0, 100.0))
        # The stuck 8-block job triggered one migration: the donor on
        # pod 0 moved to pod 1, and the new job took the compacted pod.
        assert scheduler.running[2].pod_id == 0
        assert scheduler.running[1].pod_id == 1
        record = scheduler.telemetry.records[1]
        assert record.migrations == 1
        assert record.preemptions == 0 and record.interruptions == 0
        assert scheduler.telemetry.defrag_migrations == 1

    def test_migration_preserves_progress(self):
        scheduler = self._fragmented_fleet()
        scheduler.sim.run(until=20000.0)
        scheduler.submit(_train(2, (8, 8, 8), 20000.0, 100.0))
        assert scheduler.telemetry.defrag_migrations == 1
        # Planned checkpoint: nothing replays (unlike a failure).
        assert scheduler.telemetry.replay_block_seconds == 0.0
        scheduler.sim.run()
        for record in scheduler.telemetry.records.values():
            assert record.completed

    def test_best_fit_queues_instead_of_migrating(self):
        scheduler = self._fragmented_fleet(strategy="best_fit")
        scheduler.submit(_train(2, (8, 8, 8), 1.0, 100.0))
        assert 2 not in scheduler.running
        assert scheduler.telemetry.defrag_migrations == 0

    def test_defrag_disabled_by_zero_moves(self):
        scheduler = self._fragmented_fleet(defrag_max_moves=0)
        scheduler.submit(_train(2, (8, 8, 8), 1.0, 100.0))
        assert 2 not in scheduler.running
        assert scheduler.telemetry.defrag_migrations == 0

    def test_defrag_never_migrates_serving(self):
        scheduler = _make(num_pods=2, strategy="defrag")
        self._shape_free(scheduler, 1, range(4, 8))
        scheduler.submit(_serve(0, (4, 8, 8), 0.0, 50000.0))   # -> pod 1
        scheduler.submit(_serve(1, (4, 8, 8), 0.0, 50000.0))   # -> pod 0
        for block in range(4, 8):
            scheduler.on_block_up(1, block)
        scheduler.submit(_train(2, (8, 8, 8), 1.0, 100.0))
        assert 2 not in scheduler.running
        assert scheduler.telemetry.defrag_migrations == 0

    def test_defrag_respects_total_capacity(self):
        # 6 of 8 blocks busy fleet-wide: no compaction can host an 8.
        scheduler = _make(num_pods=1, strategy="defrag")
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 50000.0))
        scheduler.submit(_train(1, (8, 8, 8), 0.0, 100.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.defrag_migrations == 0


class TestCrossPod:
    """Machine-wide placement over the trunk layer."""

    def _make_wide(self, **overrides):
        overrides.setdefault("num_pods", 2)
        overrides.setdefault("max_job_blocks", 16)
        return _make(policy=overrides.pop("policy", PlacementPolicy.OCS),
                     **overrides)

    #: 16 blocks — twice an 8-block pod, cross-pod or nothing.
    WIDE = (8, 8, 16)

    def test_larger_than_pod_spans_pods(self):
        scheduler = self._make_wide()
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        active = scheduler.running[0]
        assert active.is_cross_pod
        assert {pod_id for pod_id, _ in active.assignments} == {0, 1}
        assert len(active.blocks) == 16
        assert active.trunk_tax > 0.0
        assert active.trunk_ports_held > 0
        assert scheduler.state.machine.trunk_in_use() == \
            active.trunk_ports_held
        record = scheduler.telemetry.records[0]
        assert record.cross_pod_placements == 1

    def test_completion_frees_blocks_and_trunks(self):
        scheduler = self._make_wide()
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        scheduler.sim.run()
        assert scheduler.telemetry.records[0].completed
        assert scheduler.state.total_free == 16
        assert scheduler.state.machine.trunk_in_use() == 0
        assert scheduler.telemetry.trunk_port_seconds > 0
        # The job's own credit is exactly its demand; the stall rode
        # inside the goodput bucket on top of it.
        record = scheduler.telemetry.records[0]
        assert record.useful_seconds == pytest.approx(1000.0)
        assert record.trunk_stall_seconds > 0.0
        assert scheduler.telemetry.trunk_stall_block_seconds == \
            pytest.approx(record.trunk_stall_seconds * 16)

    def test_trunk_tax_slows_completion(self):
        taxed = self._make_wide(trunk_bandwidth_tax=0.5)
        untaxed = self._make_wide(trunk_bandwidth_tax=0.0)
        for scheduler in (taxed, untaxed):
            scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
            scheduler.sim.run()
        assert taxed.telemetry.records[0].completed_at > \
            untaxed.telemetry.records[0].completed_at

    def test_cross_pod_reconfig_pays_trunk_window(self):
        scheduler = self._make_wide(reconfig_base_seconds=30.0,
                                    trunk_reconfig_seconds=45.0)
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        assert scheduler.running[0].pending_reconfig > 30.0 + 45.0
        assert scheduler.telemetry.trunk_circuits_programmed > 0

    def test_disabled_cross_pod_queues_forever(self):
        scheduler = self._make_wide(cross_pod=False)
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        assert 0 not in scheduler.running
        assert len(scheduler.queue) == 1

    def test_static_policy_never_spans(self):
        scheduler = self._make_wide(policy=PlacementPolicy.STATIC)
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        assert 0 not in scheduler.running

    def test_no_trunk_ports_no_cross_pod(self):
        scheduler = self._make_wide(trunk_ports=0)
        scheduler.submit(_train(0, self.WIDE, 0.0, 1000.0))
        assert 0 not in scheduler.running

    def test_pod_sized_jobs_never_spill(self):
        # A job that fits one pod must wait for one, not fragment
        # across the trunk layer.
        scheduler = self._make_wide()
        scheduler.on_block_down(0, 7)
        scheduler.on_block_down(1, 7)  # both pods: 7 free
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        assert 0 not in scheduler.running

    def test_failure_on_any_pod_interrupts_whole_slice(self):
        scheduler = self._make_wide()
        scheduler.submit(_train(0, self.WIDE, 0.0, 50000.0))
        scheduler.sim.run(until=10000.0)
        scheduler.on_block_down(1, 0)  # second pod of the slice
        record = scheduler.telemetry.records[0]
        assert record.interruptions == 1
        assert 0 not in scheduler.running
        # Every pod's blocks and every trunk port came back.
        assert scheduler.state.machine.trunk_in_use() == 0
        assert scheduler.state.pods[0].num_busy == 0
        scheduler.on_block_up(1, 0)
        assert scheduler.running[0].is_cross_pod  # re-placed and resumed

    def test_serving_preempts_cross_pod_batch(self):
        scheduler = self._make_wide()
        scheduler.submit(_train(0, self.WIDE, 0.0, 50000.0))
        scheduler.submit(_serve(1, (4, 4, 4), 0.0, 1000.0))
        assert 1 in scheduler.running
        assert scheduler.telemetry.records[0].preemptions == 1
        assert scheduler.state.machine.trunk_in_use() == 0


class TestCancelledDefragMigration:
    def test_cancelled_migration_keeps_every_index_clean(self):
        # The drift regression behind FleetState.check_invariants: a
        # defrag migration whose planned checkpoint covers the donor's
        # whole remaining work is cancelled mid-plan — the donor
        # completes instead of moving — and the freed blocks must be
        # visible to the very same defrag pass, with every incremental
        # index (free masks, counters, trunk ledger) still exact.
        scheduler = _make(num_pods=2, strategy="defrag")
        donor = _train(0, (4, 4, 8), 0.0, 1000.0)      # 2 blocks, pod 0
        scheduler.submit(donor)
        scheduler.submit(_train(1, (4, 4, 4), 0.0, 1e8))   # 1 block, pod 0
        # Park a long job on pod 1 while pod 0's free blocks are down.
        for block in (3, 4, 5, 6, 7):
            scheduler.on_block_down(0, block)
        scheduler.submit(_train(2, (4, 8, 8), 0.0, 1e8))   # 4 blocks, pod 1
        assert scheduler.running[2].pod_id == 1
        for block in (3, 4, 5, 6, 7):
            scheduler.on_block_up(0, block)

        active = scheduler.running[0]
        # Fire the stuck arrival a hair before the donor's completion:
        # the planned migration checkpoint then covers all but ~5e-10s
        # of the donor's work — under the scheduler's epsilon, so the
        # migration is cancelled and the donor simply completes.
        t_mig = active.pending_reconfig + \
            (donor.work_seconds - 5e-10) * active.overhead
        big = _train(3, (4, 4, 28), t_mig, 100.0)          # 7 blocks
        scheduler.sim.schedule_at(t_mig, lambda: scheduler.submit(big))
        scheduler.sim.run(until=t_mig)

        record = scheduler.telemetry.records[0]
        assert record.completed
        assert record.completed_at == t_mig
        assert record.migrations == 0, "cancelled move must not count"
        assert 0 not in scheduler.running
        # The stuck job took the compacted pod in the same pass.
        assert scheduler.running[3].pod_id == 0
        assert scheduler.running[3].blocks_on(0) == 7
        # And the from-scratch recomputation agrees with every index.
        scheduler.state.check_invariants()
        telemetry = scheduler.telemetry
        parts = (telemetry.useful_block_seconds +
                 telemetry.replay_block_seconds +
                 telemetry.restore_block_seconds +
                 telemetry.checkpoint_block_seconds +
                 telemetry.reconfig_block_seconds)
        assert telemetry.busy_block_seconds == pytest.approx(parts)


class TestSettledDispatch:
    """A dispatch that can place nothing skips the queue walk; new
    capacity or a new queued job turns the sweep back on."""

    @staticmethod
    def _count_sorts(scheduler):
        calls = []
        in_order = scheduler._queue_in_order

        def counted():
            calls.append(1)
            return in_order()

        scheduler._queue_in_order = counted
        return calls

    def test_warm_caches_and_unchanged_queue_skip_the_sort(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))  # whole pod
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 1000.0))  # queued
        calls = self._count_sorts(scheduler)
        scheduler.dispatch()
        assert calls == []
        assert [active.job.job_id for active in scheduler.queue] == [1]
        assert list(scheduler.running) == [0]

    def test_requeued_block_down_victim_reenables_the_sweep(self):
        scheduler = _make(num_pods=2)
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(1, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(2, (4, 4, 8), 0.0, 1000.0))  # queued
        calls = self._count_sorts(scheduler)
        scheduler.dispatch()
        assert calls == []
        scheduler.on_block_down(0, 0)  # interrupts and requeues job 0
        assert calls
        # The sweep ran: job 2 took two of the victim's seven blocks.
        assert 2 in scheduler.running
        assert [active.job.job_id for active in scheduler.queue] == [0]

    def test_new_arrival_reenables_the_sweep(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        calls = self._count_sorts(scheduler)
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 1000.0))
        assert calls == [1]
        scheduler.dispatch()
        assert calls == [1]

    def test_capacity_skip_leaves_every_cache_untouched(self):
        # A job that cannot preempt and needs more blocks than are free
        # fails every rung with no side effect, so it is skipped
        # without being cached.  An observed scheduler skips it the
        # same way and, having tried no rung, logs no decision for it.
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 1000.0))
        assert not scheduler._failed_shapes
        assert not scheduler._failed_cross
        observed = _make()
        observed.obs = ObsRecorder()
        observed.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        observed.submit(_train(1, (4, 4, 8), 0.0, 1000.0))
        assert not observed._failed_shapes
        assert not observed._failed_defrags
        assert not observed._failed_cross
        assert not observed._failed_preemptions
        assert [decision.job_id
                for decision in observed.obs.decisions] == [0]


class _QueueOrderCheck:
    """A profiler that checks the queue order instead of timing it.

    Implements the `install(scheduler, sim)` / `run_seconds` protocol
    of `FleetSimulator.run(profiler=...)`; at every pass start it
    asserts that `scheduler.queue` is already in dispatch order and
    that the pass walks exactly that order.
    """

    def __init__(self):
        self.passes = 0
        self.run_seconds = 0.0

    def install(self, scheduler, sim):
        in_order = scheduler._queue_in_order

        def checked():
            expected = sorted(scheduler.queue, key=scheduler._queue_order)
            assert scheduler.queue == expected
            walked = in_order()
            assert walked == expected
            self.passes += 1
            return walked

        scheduler._queue_in_order = checked


class TestQueueOrder:
    """The queue stays in dispatch order as jobs join, so a pass walks
    it as is: (-priority, submitted_at, job_id), no per-pass sort."""

    @pytest.mark.parametrize("preset,seed", [
        ("edge", 0), ("edge", 1), ("edge", 2),   # preemption, defrag
        ("serve_surge", 0),                      # cancels, failover
        ("large", 0)])
    def test_queue_in_dispatch_order_at_every_pass(self, preset, seed):
        check = _QueueOrderCheck()
        FleetSimulator(preset_config(preset), seed=seed).run(
            PlacementPolicy.OCS, profiler=check)
        assert check.passes > 0

    def test_requeue_and_arrival_at_one_instant_order_by_id(self):
        scheduler = _make()
        scheduler.submit(_train(2, (8, 8, 8), 0.0, 1000.0))  # whole pod

        def arrival_then_requeue():
            scheduler.submit(_train(4, (8, 8, 8), 100.0, 1000.0))
            scheduler.on_block_down(0, 0)  # requeues job 2 at t=100

        scheduler.sim.schedule_at(100.0, arrival_then_requeue)
        scheduler.sim.run(until=100.0)
        # Neither fits the 7 healthy blocks; the requeue joined after
        # the arrival at the same instant, and the lower id goes first.
        assert [active.submitted_at for active in scheduler.queue] == \
            [100.0, 100.0]
        assert [active.job.job_id for active in scheduler.queue] == [2, 4]
        assert scheduler._queue_in_order() == scheduler.queue


def _reference_pod_choice(counts, needed, strategy):
    """The numpy pod choice `_find_anywhere` made before its scalar scan."""
    counts = np.asarray(counts, dtype=np.int64)
    if strategy is PlacementStrategy.FIRST_FIT:
        feasible = counts >= needed
        pod_id = int(feasible.argmax())
        return pod_id if feasible[pod_id] else None
    pod_id = int(np.where(counts >= needed, counts,
                          np.iinfo(np.int64).max).argmin())
    return pod_id if counts[pod_id] >= needed else None


class TestPodChoiceOracle:
    """OCS single-pod choice is a scan of per-pod free counts: the first
    feasible pod for first_fit, the least-free feasible pod (ties to the
    lowest id) for best_fit and defrag."""

    @settings(max_examples=300, deadline=None)
    @given(blocks_per_pod=st.sampled_from([8, 27, 64]),
           fill=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
           demand=st.floats(0.0, 1.0),
           strategy=st.sampled_from(list(PlacementStrategy)))
    # Free counts [4, 6, 4, 6]: a 3-block demand ties pods 0 and 2.
    @example(blocks_per_pod=8, fill=[0.5, 0.25, 0.5, 0.25], demand=0.3,
             strategy=PlacementStrategy.BEST_FIT)
    # Free counts [4, 6, 4]: no pod holds a 7-block demand.
    @example(blocks_per_pod=8, fill=[0.5, 0.25, 0.5], demand=0.8,
             strategy=PlacementStrategy.FIRST_FIT)
    @example(blocks_per_pod=8, fill=[0.5, 0.25, 0.5], demand=0.8,
             strategy=PlacementStrategy.DEFRAG)
    def test_matches_numpy_choice(self, blocks_per_pod, fill, demand,
                                  strategy):
        num_pods = len(fill)
        config = FleetConfig(num_pods=num_pods,
                             blocks_per_pod=blocks_per_pod,
                             max_job_blocks=blocks_per_pod,
                             strategy=strategy)
        state = FleetState(num_pods, blocks_per_pod)
        for pod, share in zip(state.pods, fill):
            taken = round(share * blocks_per_pod)
            if taken:
                pod.assign(list(range(taken)), job_id=1000 + pod.pod_id)
        scheduler = FleetScheduler(config, PlacementPolicy.OCS,
                                   Simulator(), state, FleetTelemetry())
        needed = 1 + round(demand * blocks_per_pod)  # may exceed a pod
        # Under OCS, pod choice reads nothing of the job but its demand.
        placement = scheduler._find_anywhere(SimpleNamespace(blocks=needed))
        counts = [pod.num_free for pod in state.pods]
        expected = _reference_pod_choice(counts, needed, strategy)
        if expected is None:
            assert placement is None
        else:
            [(pod, blocks)] = placement
            assert pod.pod_id == expected
            assert blocks == pod.first_free(needed)


# -- the reference dispatch pass ----------------------------------------------
#
# The pass as it stood before it skipped dead job classes, kept to require
# the same rung calls, the same decisions and the same run.


def _reference_dispatch_pass(self):
    """`FleetScheduler._dispatch_pass` before dead-class skipping."""
    if not self.queue:
        return False
    moved_any = False
    # Hoisted out of the per-job loop: this sweep visits every
    # queued job on every pass (tens of thousands of iterations on
    # the medium preset), so the disabled path must not pay even
    # the attribute lookups.
    obs_enabled = self.obs.enabled
    # Within a pass, free space only shrinks and (because the queue
    # is priority-sorted) no preemptible job starts before a
    # preemptor is considered — so a failed placement, defrag,
    # cross-pod, or preemption attempt stays failed for identical
    # later requests until capacity grows.  The same monotonicity
    # holds *across* passes and dispatches, so the caches persist,
    # synced to the grow epoch before each job: a defrag or
    # preemption that frees blocks or trunk ports mid-pass
    # invalidates them for every later job.  They start synced at
    # the last settled pass's epoch.
    epoch_at_start = self._grow_epoch
    joins_at_start = self._joins
    synced = self._settled[0]
    failed_shapes = self._failed_shapes
    failed_defrags = self._failed_defrags
    failed_cross = self._failed_cross
    failed_preemptions = self._failed_preemptions
    # Capacity check: a job that cannot preempt and needs more
    # blocks than are free machine-wide fails every rung — free,
    # defrag, and cross-pod placement all need that many free
    # blocks — with no side effect, so it is skipped without
    # touching any cache.  Free space grows only with the grow
    # epoch, so the total is re-read whenever the epoch moves (a
    # mid-pass eviction frees blocks later jobs may take).
    preempt_priority = self.config.preempt_priority
    free_epoch = -1
    total_free = 0
    for active in self._queue_in_order():
        epoch = self._grow_epoch
        if synced != epoch:
            synced = epoch
            failed_shapes.clear()
            failed_defrags.clear()
            failed_cross.clear()
            failed_preemptions.clear()
        shape = active.job.shape
        can_preempt = active.job.priority >= preempt_priority
        if not can_preempt:
            if free_epoch != epoch:
                free_epoch = epoch
                total_free = self.state.total_free
            if active.job.blocks > total_free:
                continue
        placement = None
        via = ""        # the rung that placed it, for the decision log
        attempted = False  # did ANY rung run, or were all cache-skipped
        if shape not in failed_shapes:
            attempted = True
            placement = self._find_anywhere(active.job)
            if placement is None:
                failed_shapes.add(shape)
            else:
                via = "pod_local"
        if placement is None and \
                self.strategy is PlacementStrategy.DEFRAG and \
                active.job.blocks not in failed_defrags:
            attempted = True
            placement = self._defrag_for(active)
            if placement is not None:  # migrations moved blocks
                via = "defrag"
                moved_any = True
            else:
                failed_defrags.add(active.job.blocks)
        if placement is None and shape not in failed_cross:
            attempted = True
            placement = self._find_cross_pod(active.job)
            if placement is None:
                failed_cross.add(shape)
            else:
                via = "cross_pod"
        if placement is None and can_preempt:
            key = (shape, active.job.priority)
            if key not in failed_preemptions:
                attempted = True
                placement = self._preempt_for(active)
                if placement is not None:  # eviction freed blocks
                    via = "preemption"
                    moved_any = True
                else:
                    failed_preemptions.add(key)
        if obs_enabled and attempted:
            self.obs.decision(
                self.sim.now, active.job.job_id, active.job.kind,
                active.job.blocks, active.job.priority,
                "placed" if placement is not None else "rejected",
                via if placement is not None else
                self._rejection_cause(active, can_preempt))
        if placement is None:
            continue  # backfill: later (smaller) jobs may still fit
        self._start(active, placement)
    # Settle only a pass that saw no grow at all; after one that
    # did, the next pass starts with empty caches.
    if self._grow_epoch == epoch_at_start:
        self._settled = (epoch_at_start, joins_at_start)
    return moved_any


class _RungLog:
    """A profiler that logs scheduler work instead of timing it.

    Implements the `install(scheduler, sim)` / `run_seconds` protocol
    of `FleetSimulator.run(profiler=...)` and records every pass start
    (`_queue_in_order`) and placement-rung call as (sim time, method,
    job id).  With `reference`, the run's scheduler dispatches with
    `_reference_dispatch_pass` instead of its own pass.
    """

    RUNGS = ("_find_anywhere", "_defrag_for", "_find_cross_pod",
             "_preempt_for")

    def __init__(self, reference):
        self.reference = reference
        self.calls = []
        self.run_seconds = 0.0

    def install(self, scheduler, sim):
        if self.reference:
            scheduler._dispatch_pass = MethodType(_reference_dispatch_pass,
                                                  scheduler)
        in_order = scheduler._queue_in_order

        def logged_order():
            self.calls.append((sim.now, "_queue_in_order", None))
            return in_order()

        scheduler._queue_in_order = logged_order
        for name in self.RUNGS:
            setattr(scheduler, name,
                    self._logged(sim, name, getattr(scheduler, name)))

    def _logged(self, sim, name, rung):
        def logged(target):  # an ActiveJob or its FleetJob
            job = target.job if isinstance(target, ActiveJob) else target
            self.calls.append((sim.now, name, job.job_id))
            return rung(target)
        return logged


def _logged_run(preset, seed, strategy, observed, reference):
    """One OCS run under a rung log: everything it did and reported."""
    log = _RungLog(reference)
    recorder = ObsRecorder() if observed else None
    report = FleetSimulator(preset_config(preset), seed=seed).run(
        PlacementPolicy.OCS, strategy, recorder=recorder, profiler=log)
    serve = report.serve
    return (log.calls, json.dumps(report.summary, sort_keys=True),
            report.job_records,
            None if serve is None else (serve.summary, serve.pools),
            None if recorder is None else
            (recorder.decisions, recorder.spans, recorder.instants))


def _scripted_run(observed, reference):
    """A hand-built queue in which a dead class comes back to life.

    One 8-block pod, with prod and serving priority both able to
    preempt.  A serving replica and a batch job fill it.  Two 8-block
    serving jobs (ids 3 and 5) and an 8-block prod job (2) cannot run:
    evicting the batch job frees only 4 blocks.  The prod job's
    preemption is its own attempt, though its shape already failed at
    serving priority.  Then a 4-block serving job (id 4: queued last,
    it sorts before job 5) evicts the batch job; that grow revives the
    dead class, so job 5 is tried again in the same pass.
    """
    log = _RungLog(reference)
    scheduler = _make(preempt_priority=PRIORITY_PROD)
    if observed:
        scheduler.obs = ObsRecorder()
    log.install(scheduler, scheduler.sim)
    scheduler.submit(_serve(0, (4, 8, 8), 0.0, 5000.0))
    scheduler.submit(_train(1, (4, 8, 8), 0.0, 3000.0))
    scheduler.submit(_train(3, (8, 8, 8), 0.0, 1000.0,
                            priority=PRIORITY_SERVING))
    scheduler.submit(_train(2, (8, 8, 8), 0.0, 1000.0,
                            priority=PRIORITY_PROD))
    scheduler.submit(_train(5, (8, 8, 8), 0.0, 1000.0,
                            priority=PRIORITY_SERVING))
    scheduler.submit(_serve(4, (4, 8, 8), 0.0, 2000.0))
    scheduler.sim.run()
    return (log.calls, None, scheduler.telemetry.records, None,
            None if not observed else
            (scheduler.obs.decisions, scheduler.obs.spans,
             scheduler.obs.instants))


class TestDeadClassOracle:
    """A dispatch pass that skips dead job classes does the reference
    pass's work: the same passes and rung calls in the same order, the
    same decision log, summary and job records."""

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    @pytest.mark.parametrize("preset,seed,strategy", [
        ("edge", 0, None), ("edge", 1, None), ("edge", 2, None),
        ("serve_surge", 0, None),                 # long repeated queues
        ("large", 0, None),                       # cross-pod
        ("small", 0, None),
        ("large", 0, PlacementStrategy.DEFRAG),   # migrations, trunks
    ])
    def test_same_work_as_the_reference_pass(self, preset, seed, strategy,
                                             observed):
        expected = _logged_run(preset, seed, strategy, observed, True)
        got = _logged_run(preset, seed, strategy, observed, False)
        assert got[0], "no rung ran"
        for part, (mine, theirs) in enumerate(zip(got, expected)):
            assert mine == theirs, f"part {part} differs"

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    def test_revived_class_same_work_as_the_reference_pass(self, observed):
        expected = _scripted_run(observed, True)
        got = _scripted_run(observed, False)
        for part, (mine, theirs) in enumerate(zip(got, expected)):
            assert mine == theirs, f"part {part} differs"
        # The scenario does what it says: job 5 is tried right after
        # job 4's eviction, in the same pass, and job 2's preemption
        # runs although its shape failed at serving priority.
        calls = [(method, job_id) for _, method, job_id in got[0]]
        evicting = calls.index(("_preempt_for", 4))
        assert calls[evicting + 1] == ("_find_anywhere", 5)
        assert calls.count(("_preempt_for", 2)) >= 2

    def test_class_ids_are_dense_and_kept_on_requeue(self):
        scheduler = _make(num_pods=2)
        scheduler.submit(_train(0, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 1000.0))
        scheduler.submit(_train(2, (8, 8, 8), 0.0, 1000.0))
        scheduler.submit(_train(3, (8, 8, 8), 0.0, 1000.0,
                                priority=PRIORITY_SERVING))
        classes = {job_id: active.klass
                   for job_id, active in scheduler.running.items()}
        classes.update({active.job.job_id: active.klass
                        for active in scheduler.queue})
        assert classes == {0: 0, 1: 1, 2: 0, 3: 2}
        victim = scheduler.running[0]
        scheduler.on_block_down(0, 0)  # requeues job 0
        assert victim in scheduler.queue
        assert victim.klass == 0
