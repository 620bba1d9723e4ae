"""Tests for machine-wide contention resolution: cross-pod preemption,
trunk-freeing defragmentation, the failure-cache invalidation after
mid-pass releases, the static-wiring migration guard, and the invariant-guard
wiring — the ISSUE 5 tentpole and its bugfix satellites."""

import json

import pytest

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.errors import SchedulingError
from repro.fleet import (FleetSimulator, compare_preemption, dumps_trace,
                         hostile_background_mix, loads_trace,
                         preset_config, trace_of)
from repro.fleet.cluster import FleetState
from repro.fleet.config import FleetConfig
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.workload import (FleetJob, PRIORITY_BATCH, PRIORITY_PROD,
                                  PRIORITY_SERVING)
from repro.sim.events import Simulator

IDENTITY_PARTS = ("goodput", "replay_fraction", "restore_fraction",
                  "checkpoint_fraction", "reconfig_fraction")


def _make(policy=PlacementPolicy.OCS, num_pods=2, blocks_per_pod=8,
          scheduler_cls=FleetScheduler, **overrides):
    overrides.setdefault("max_job_blocks", num_pods * blocks_per_pod)
    overrides.setdefault("preempt_priority", 1)
    config = FleetConfig(num_pods=num_pods, blocks_per_pod=blocks_per_pod,
                         **overrides)
    sim = Simulator()
    state = FleetState(num_pods, blocks_per_pod,
                       with_fabric=policy is PlacementPolicy.OCS,
                       trunk_ports=config.trunk_ports)
    telemetry = FleetTelemetry()
    return scheduler_cls(config, policy, sim, state, telemetry)


def _train(job_id, shape, arrival, work, priority=PRIORITY_BATCH):
    return FleetJob(job_id=job_id, kind="train", model_type="LLM",
                    shape=shape, arrival=arrival, work_seconds=work,
                    priority=priority)


def _serve(job_id, shape, arrival, work):
    return FleetJob(job_id=job_id, kind="serve", model_type="MLP/DLRM",
                    shape=shape, arrival=arrival, work_seconds=work,
                    priority=PRIORITY_SERVING)


class TestCrossPodPreemption:
    """The tentpole: oversized preemptors assemble placements out of
    evictions, credited hypothetically and evicted minimally."""

    #: 16 blocks — twice an 8-block pod; cross-pod or nothing.
    WIDE = (8, 8, 16)

    def test_oversized_prod_job_preempts_its_way_in(self):
        scheduler = _make()
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 50000.0))
        assert scheduler.state.total_free == 0
        scheduler.submit(_train(10, self.WIDE, 1.0, 1000.0,
                                priority=PRIORITY_PROD))
        active = scheduler.running[10]
        assert active.is_cross_pod
        assert scheduler.telemetry.cross_pod_preemptions == 4
        # Every victim was requeued, none lost.
        assert {a.job.job_id for a in scheduler.queue} == {0, 1, 2, 3}
        for i in range(4):
            assert scheduler.telemetry.records[i].preemptions == 1

    def test_only_needed_victims_evicted_bystanders_keep_running(self):
        # Three pods; pod 2 fully free.  Batch jobs: 0 (4 blocks,
        # pod 0, started first), 1 (4 blocks, pod 1), 2+3 (2 blocks
        # each, pod 0), 4+5 (2 blocks each, pod 1).  A 16-block prod
        # arrival needs pod 2's 8 free plus 8 evicted; victim order
        # (least progress lost) considers 1,2,3 first and they suffice
        # — jobs 0, 4, 5 are bystanders and must keep running even
        # though they are all lower-priority too.
        scheduler = _make(num_pods=3)
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 50000.0))
        scheduler.sim.run(until=1.0)
        scheduler.submit(_train(1, (4, 8, 8), 1.0, 50000.0))
        for job_id in (2, 3, 4, 5):
            scheduler.submit(_train(job_id, (4, 4, 8), 1.0, 50000.0))
        assert [p.num_free for p in scheduler.state.pods] == [0, 0, 8]
        scheduler.submit(_train(10, self.WIDE, 2.0, 1000.0,
                                priority=PRIORITY_PROD))
        active = scheduler.running[10]
        assert active.is_cross_pod
        assert scheduler.telemetry.cross_pod_preemptions == 3
        assert set(scheduler.running) == {0, 4, 5, 10}
        for job_id in (1, 2, 3):
            assert scheduler.telemetry.records[job_id].preemptions == 1
        for job_id in (0, 4, 5):
            assert scheduler.telemetry.records[job_id].preemptions == 0

    def test_cross_pod_victim_credited_with_trunk_ports(self):
        # The trunk budget only fits one cross-pod slice; a serving-
        # priority arrival of the same size must see the victim's
        # ports come back in the hypothetical plan — and reclaim them.
        scheduler = _make(trunk_ports=16, preempt_priority=2)
        scheduler.submit(_train(0, self.WIDE, 0.0, 50000.0))
        victim = scheduler.running[0]
        assert victim.is_cross_pod and victim.trunk_ports_held > 0
        held_before = victim.trunk_ports_held
        assert scheduler.state.machine.trunk_budget() == {0: 0, 1: 0}
        scheduler.submit(_serve(1, self.WIDE, 1.0, 1000.0))
        assert scheduler.running[1].is_cross_pod
        assert scheduler.telemetry.cross_pod_preemptions == 1
        assert scheduler.telemetry.trunk_ports_reclaimed == held_before

    def test_disabled_knob_reproduces_pod_local_queueing(self):
        scheduler = _make(cross_pod_preemption=False)
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 50000.0))
        scheduler.submit(_train(10, self.WIDE, 1.0, 1000.0,
                                priority=PRIORITY_PROD))
        assert 10 not in scheduler.running
        assert scheduler.telemetry.cross_pod_preemptions == 0
        assert scheduler.telemetry.preemption_events == 0

    def test_pod_sized_preemptor_never_spills(self):
        # A job that fits one pod preempts pod-locally, not across.
        scheduler = _make()
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 50000.0))
        scheduler.submit(_train(10, (8, 8, 8), 1.0, 1000.0,
                                priority=PRIORITY_PROD))
        active = scheduler.running[10]
        assert not active.is_cross_pod
        assert scheduler.telemetry.cross_pod_preemptions == 0
        assert scheduler.telemetry.preemption_events == 2

    def test_equal_priority_cannot_preempt_cross_pod(self):
        scheduler = _make()
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 50000.0,
                                    priority=PRIORITY_PROD))
        scheduler.submit(_train(10, self.WIDE, 1.0, 1000.0,
                                priority=PRIORITY_PROD))
        assert 10 not in scheduler.running
        assert scheduler.telemetry.cross_pod_preemptions == 0

    def test_static_policy_never_preempts_cross_pod(self):
        scheduler = _make(policy=PlacementPolicy.STATIC)
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 50000.0))
        scheduler.submit(_train(10, self.WIDE, 1.0, 1000.0,
                                priority=PRIORITY_PROD))
        assert 10 not in scheduler.running
        assert scheduler.telemetry.cross_pod_preemptions == 0

    def test_accounting_identity_after_eviction_heavy_run(self):
        scheduler = _make()
        for i in range(4):
            scheduler.submit(_train(i, (4, 8, 8), 0.0, 20000.0))
        scheduler.submit(_train(10, self.WIDE, 1.0, 5000.0,
                                priority=PRIORITY_PROD))
        scheduler.sim.run()
        telemetry = scheduler.telemetry
        for record in telemetry.records.values():
            assert record.completed
        parts = (telemetry.useful_block_seconds +
                 telemetry.replay_block_seconds +
                 telemetry.restore_block_seconds +
                 telemetry.checkpoint_block_seconds +
                 telemetry.reconfig_block_seconds)
        assert telemetry.busy_block_seconds == pytest.approx(parts)
        scheduler.state.check_invariants()


class TestTrunkFreeingDefrag:
    """The tentpole's second arm: when a cross-pod plan fails on trunk
    ports rather than blocks, donors re-pack to free the trunk layer."""

    def _contended(self, **overrides):
        """4 pods x 8 blocks; a spread donor holds most trunk ports.

        Blocks 6-7 of every pod are downed while the donor places, so
        its 16-block slice spreads over three pods (6+6+4, 60 trunk
        endpoints); the blocks then return, leaving 16 free blocks but
        a trunk budget of {8, 0, 10, 26} that blocks every layout of a
        second 16-block slice.
        """
        overrides.setdefault("strategy", "defrag")
        overrides.setdefault("trunk_ports", 26)
        scheduler = _make(num_pods=4, **overrides)
        for pod in range(4):
            for block in (6, 7):
                scheduler.on_block_down(pod, block)
        scheduler.submit(_train(0, (8, 8, 16), 0.0, 50000.0))
        assert scheduler.running[0].trunk_ports_held == 60
        for pod in range(4):
            for block in (6, 7):
                scheduler.on_block_up(pod, block)
        assert scheduler.state.total_free == 16
        return scheduler

    def test_donor_repacked_and_stuck_job_placed(self):
        scheduler = self._contended()
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        donor, placed = scheduler.running[0], scheduler.running[1]
        assert placed.is_cross_pod
        # The donor re-packed to a snug two-pod split, freeing ports.
        assert donor.trunk_ports_held == 32
        assert len(donor.assignments) == 2
        assert scheduler.telemetry.trunk_freeing_migrations == 1
        assert scheduler.telemetry.trunk_ports_reclaimed == 60 - 32
        assert scheduler.telemetry.records[0].migrations == 1
        # A planned migration checkpoints: nothing replays.
        assert scheduler.telemetry.replay_block_seconds == 0.0
        scheduler.state.check_invariants()

    def test_run_to_completion_keeps_identity(self):
        scheduler = self._contended()
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        scheduler.sim.run()
        telemetry = scheduler.telemetry
        for record in telemetry.records.values():
            assert record.completed
        parts = (telemetry.useful_block_seconds +
                 telemetry.replay_block_seconds +
                 telemetry.restore_block_seconds +
                 telemetry.checkpoint_block_seconds +
                 telemetry.reconfig_block_seconds)
        assert telemetry.busy_block_seconds == pytest.approx(parts)

    def test_disabled_knob_also_disables_trunk_defrag(self):
        # The A/B knob gates the whole machine-wide contention family,
        # so "queueing" runs reproduce the pre-contention scheduler.
        scheduler = self._contended(cross_pod_preemption=False)
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 0

    def test_zero_moves_disables_trunk_defrag(self):
        scheduler = self._contended(defrag_max_moves=0)
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 0

    def test_block_shortage_never_migrates(self):
        # With 4 free blocks short, no re-packing can conjure capacity:
        # the stuck job must queue and no donor may move for nothing.
        scheduler = self._contended()
        scheduler.on_block_down(3, 0)  # 15 free < 16 needed
        before = scheduler.running[0].assignments
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 0
        assert scheduler.running[0].assignments == before

    def test_preempt_band_donors_never_move(self):
        # A donor at or above the preemption band (serving tier) stays.
        scheduler = self._contended(preempt_priority=0)
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 0

    def test_multi_donor_relocation_halts_all_before_restarting(self):
        # Relocations are planned against pools where EVERY lifted
        # donor has vacated, so one donor's new placement may sit on
        # blocks another lifted donor still holds.  Committing donor by
        # donor (halt d1, restart d1, halt d2, ...) crashed mid-commit
        # with d1 already halted; the two-phase commit must halt every
        # donor before materializing any relocation.
        scheduler = _make(num_pods=8, strategy="defrag",
                          trunk_ports=16, defrag_max_moves=3)
        for pod in range(2, 8):
            for block in range(8):
                scheduler.on_block_down(pod, block)
        scheduler.submit(_train(0, (8, 8, 12), 0.0, 50000.0))
        assert scheduler.running[0].assignments == \
            [(0, list(range(8))), (1, [0, 1, 2, 3])]
        for pod in (2, 3):
            for block in range(8):
                scheduler.on_block_up(pod, block)
        for block in (4, 5, 6, 7):
            scheduler.on_block_down(1, block)
        scheduler.submit(_train(1, (8, 8, 12), 0.0, 50000.0))
        assert scheduler.running[1].assignments == \
            [(2, list(range(8))), (3, [0, 1, 2, 3])]
        for block in (4, 5, 6, 7):
            scheduler.on_block_up(1, block)
        for pod in (5, 7):
            for block in (0, 1, 2, 3):
                scheduler.on_block_up(pod, block)
        # Free: P1:4, P3:4, P5:4, P7:4; both donors hold 14 of the 16
        # trunk ports on their pods — a 16-block arrival is trunk-bound
        # and needs BOTH donors re-packed, d1's relocation landing on
        # blocks d2 holds at plan time.
        assert scheduler.state.total_free == 16
        scheduler.submit(_train(2, (8, 8, 16), 1.0, 1000.0))
        assert 2 in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 2
        assert scheduler.running[0].running
        assert scheduler.running[1].running
        scheduler.state.check_invariants()

    def test_best_fit_strategy_queues_instead(self):
        scheduler = self._contended(strategy="best_fit")
        scheduler.submit(_train(1, (8, 8, 16), 1.0, 1000.0))
        assert 1 not in scheduler.running
        assert scheduler.telemetry.trunk_freeing_migrations == 0


class _LeakyDefrag(FleetScheduler):
    """A defrag rung that frees capacity *without* returning a placement.

    No real contention path does that — every release during a pass
    comes from a defrag or preemption that then places its job — so
    this one models the worst case for the failure caches: trying
    `probe_id` interrupts job 0 and reports failure, and later jobs in
    the same pass meet caches filled before capacity grew.
    """

    probe_id = -1
    releases = 0

    def _defrag_for(self, active):
        # Bounded so a broken invalidation fails the assertions below
        # instead of livelocking the dispatch loop.
        if active.job.job_id == self.probe_id and self.releases < 3:
            victim = self.running.get(0)
            if victim is not None:
                self.releases += 1
                self._interrupt(victim, preempted=False)
            return None
        return super()._defrag_for(active)


class TestStaleFailureCaches:
    """A mid-pass release must clear every failure cache before the
    next job is tried, also on paths that place nothing."""

    def test_trunk_release_unskips_cross_pod_jobs_in_same_pass(self):
        # The probe's defrag frees job 0's slice and trunk ports.  A
        # cross-pod job later in the same pass whose shape was cached
        # as failed must not be skipped by the stale entry.
        # Four 8-block pods, 16 trunk ports each; no trunk-freeing
        # defrag, so only the leak can hand trunk ports back.
        scheduler = _make(num_pods=4, strategy="defrag",
                          scheduler_cls=_LeakyDefrag, trunk_ports=16,
                          cross_pod_preemption=False)
        scheduler.probe_id = 2
        shape = (8, 8, 12)       # 12 blocks: cross-pod on 8-block pods
        scheduler.submit(_train(0, shape, 0.0, 50000.0))
        assert [(pod_id, len(blocks)) for pod_id, blocks
                in scheduler.running[0].assignments] == [(0, 8), (1, 4)]
        # Leave 4 free blocks on each of pods 1-3: 12 in all, so every
        # job below passes the capacity check, but job 0 holds 14 of
        # pod 1's 16 trunk ports, so a second 12-block slice fails on
        # trunk ports, not blocks.
        for pod_id in (2, 3):
            for block in range(4, 8):
                scheduler.on_block_down(pod_id, block)
        assert scheduler.state.free_by_pod() == \
            [(0, 0), (1, 4), (2, 4), (3, 4)]
        # One dispatch pass over [1 (shape S: fails cross on trunk
        # ports, so S is cached in failed_cross), probe (8 blocks: no
        # pod has 8 free; its defrag frees job 0's slice and trunk
        # ports), 3 (shape S again — the stale failed_cross victim)].
        scheduler.sim.now = 1.0
        for job in (_train(1, shape, 1.0, 1000.0),
                    _train(2, (8, 8, 8), 1.0, 1000.0),
                    _train(3, shape, 1.0, 1000.0)):
            scheduler._enqueue(job)
        scheduler.dispatch()
        assert scheduler.releases == 1
        # Job 3's shape was in failed_cross when the probe released
        # the trunk mid-pass; the invalidation must retry it.
        assert 3 in scheduler.running
        assert scheduler.running[3].is_cross_pod
        assert 1 not in scheduler.running
        scheduler.state.check_invariants()

    def test_block_release_unskips_pod_local_jobs_in_same_pass(self):
        # A single-pod victim: the probe's defrag frees all of pod 0,
        # and a later job whose shape was cached in failed_shapes
        # must get a fresh try at it.
        scheduler = _make(num_pods=3, strategy="defrag",
                          scheduler_cls=_LeakyDefrag)
        scheduler.probe_id = 2
        shape = (8, 8, 8)        # 8 blocks: a whole pod
        scheduler.submit(_train(0, shape, 0.0, 50000.0))
        assert scheduler.running[0].assignments == [(0, list(range(8)))]
        for pod_id in (1, 2):
            for block in range(4, 8):
                scheduler.on_block_down(pod_id, block)
        assert scheduler.state.free_by_pod() == [(0, 0), (1, 4), (2, 4)]
        # One dispatch pass over [1 (shape S: no pod has 8 free, so S
        # is cached in failed_shapes), probe (6 blocks: its defrag
        # interrupts job 0 and frees pod 0), 3 (shape S again — the
        # stale failed_shapes victim)].
        scheduler.sim.now = 1.0
        for job in (_train(1, shape, 1.0, 1000.0),
                    _train(2, (4, 8, 12), 1.0, 1000.0),
                    _train(3, shape, 1.0, 1000.0)):
            scheduler._enqueue(job)
        scheduler.dispatch()
        assert scheduler.releases == 1
        assert 3 in scheduler.running
        assert scheduler.running[3].assignments == [(0, list(range(8)))]
        assert 1 not in scheduler.running
        scheduler.state.check_invariants()


class TestStaticWiringGuards:
    """Satellite bugfix: the first_free shortcuts in defrag/migration
    are OCS-only; static wiring must never reach them."""

    def test_migrate_raises_under_static_policy(self):
        scheduler = _make(policy=PlacementPolicy.STATIC,
                          strategy="defrag")
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 50000.0))
        active = scheduler.running[0]
        with pytest.raises(SchedulingError, match="statically-wired"):
            scheduler._migrate(active, scheduler.state.pods[1])
        # The guard fired before any state was touched.
        assert 0 in scheduler.running
        scheduler.state.check_invariants()

    @staticmethod
    def _is_cuboid(blocks, side):
        """True when a block-id set forms a contiguous cuboid."""
        coords = [((b // (side * side)), (b // side) % side, b % side)
                  for b in blocks]
        spans = []
        for axis in range(3):
            values = [c[axis] for c in coords]
            spans.append(max(values) - min(values) + 1)
        return spans[0] * spans[1] * spans[2] == len(blocks)

    def test_static_defrag_places_only_cuboids_and_never_migrates(self):
        # A fragmented static fleet under the defrag strategy: every
        # placement must be a contiguous cuboid (defrag degrades to
        # best_fit; no OCS shortcut may leak through).
        scheduler = _make(policy=PlacementPolicy.STATIC,
                          strategy="defrag", preempt_priority=2)
        side = 2
        scheduler.submit(_train(0, (4, 8, 8), 0.0, 9000.0))
        scheduler.submit(_train(1, (4, 4, 8), 0.0, 50000.0))
        scheduler.submit(_serve(2, (4, 4, 4), 0.0, 4000.0))
        scheduler.sim.run(until=10000.0)
        scheduler.submit(_train(3, (4, 8, 8), 10000.0, 1000.0))
        scheduler.submit(_serve(4, (4, 4, 8), 10000.0, 1000.0))
        assert scheduler.telemetry.defrag_migrations == 0
        for active in scheduler.running.values():
            for pod_id, blocks in active.assignments:
                assert self._is_cuboid(blocks, side), \
                    f"job {active.job.job_id} holds non-cuboid {blocks}"
        scheduler.sim.run()
        assert scheduler.telemetry.defrag_migrations == 0


class TestInvariantGuardWiring:
    """Satellite bugfix: the drift guard must be forceable regardless
    of interpreter flags, and must actually catch corruption."""

    def test_verify_flag_defaults_to_debug_mode(self):
        scheduler = _make()
        assert scheduler.verify_invariants == __debug__

    def test_double_booked_block_caught_by_check_invariants(self):
        scheduler = _make()
        scheduler.state.pods[0].owner[0] = 99  # double-book: owned+free
        with pytest.raises(SchedulingError, match="free mask drifted"):
            scheduler.state.check_invariants()

    def test_dispatch_fires_the_guard_when_forced_on(self):
        scheduler = _make()
        scheduler.verify_invariants = True  # independent of -O
        scheduler.state.pods[0].owner[0] = 99
        with pytest.raises(SchedulingError):
            scheduler.dispatch()

    def test_corrupt_trunk_ledger_caught(self):
        scheduler = _make()
        scheduler.submit(_train(0, (8, 8, 16), 0.0, 1000.0))
        machine = scheduler.state.machine
        machine._trunk_free[0] += 1  # drift the free index
        with pytest.raises(Exception, match="trunk index out of sync"):
            machine.check_trunk_accounting()

    def test_guard_can_be_compiled_out_shape(self):
        # The production escape hatch: turning the flag off skips the
        # dispatch-time rescan (the corruption goes unnoticed), which
        # is exactly why CI asserts the flag is on in its environment.
        scheduler = _make()
        scheduler.verify_invariants = False
        scheduler.state.pods[1].owner[0] = 99
        scheduler.dispatch()  # does not raise
        with pytest.raises(SchedulingError):
            scheduler.state.check_invariants()


class TestHostileMixAcceptance:
    """The ISSUE acceptance scenario on the large preset."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = preset_config("large").with_overrides(
            preempt_priority=1)
        return compare_preemption(config, seed=0,
                                  strategy=PlacementStrategy.BEST_FIT,
                                  workload=hostile_background_mix)

    def test_48_block_class_placed_via_cross_pod_preemption(self, reports):
        enabled = reports["preemption"]
        assert enabled.summary["cross_pod_preemptions"] > 0
        assert enabled.goodput_for_blocks(48) > 0
        assert max(r.blocks for r in enabled.job_records) == 48

    def test_pod_local_scheduler_starves_the_class(self, reports):
        disabled = reports["queueing"]
        assert disabled.summary["cross_pod_preemptions"] == 0
        assert disabled.goodput_for_blocks(48) == 0.0
        assert disabled.summary["jobs_never_ran"] > 0

    def test_identity_holds_to_1e9(self, reports):
        for report in reports.values():
            parts = sum(report.summary[key] for key in IDENTITY_PARTS)
            assert abs(report.summary["utilization"] - parts) < 1e-9

    def test_inputs_identical_across_ab(self, reports):
        enabled, disabled = reports["preemption"], reports["queueing"]
        assert enabled.summary["jobs_submitted"] == \
            disabled.summary["jobs_submitted"]
        assert enabled.summary["block_failures"] == \
            disabled.summary["block_failures"]


class TestEdgeReplayByteIdentity:
    """Evictions are decisions, not inputs: a recorded edge-preset run
    (contention paths enabled and firing) replays byte-identically."""

    def test_record_replay_summary_bytes_identical(self):
        recorded = FleetSimulator(preset_config("edge"), seed=0)
        trace = loads_trace(dumps_trace(trace_of(recorded)))
        replayed = FleetSimulator.from_trace(trace)
        first = recorded.run(PlacementPolicy.OCS)
        second = replayed.run(PlacementPolicy.OCS)
        assert first.summary["cross_pod_preemptions"] > 0
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)
        assert first.events_fired == second.events_fired
