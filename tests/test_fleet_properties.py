"""Property tests for the fleet scheduler: invariants under random load.

Each scenario draws a random small fleet (policy, strategy, latency and
trunk knobs, cross-pod on/off), a random job stream — including jobs
bigger than one pod, which must span pods over the trunk layer — and a
random outage pattern, then drives the simulation one event at a time,
checking structural invariants after every event:

* occupied + free + down-unowned blocks always sum to pod capacity,
  per pod AND machine-wide, and every incremental index matches a
  from-scratch rescan (:meth:`FleetState.check_invariants`);
* no job is double-placed (its per-pod assignments exactly match pod
  ownership, single-pod jobs live on one pod, never both queued and
  running);
* fabric circuits exist exactly for running block-multiple jobs, and
  trunk ports are never double-booked: per-pod trunk usage recomputed
  from the held-circuit ledger matches the free index and stays within
  capacity;

and accounting identities at the end of the run:

* busy time = useful + replay + restore + checkpoint + reconfig, so
  preemption/interrupt/migration/cross-pod accounting never loses or
  double-counts segment time (trunk stall rides inside useful and is
  bounded by it);
* no job is credited more useful work than it asked for, and completed
  jobs are credited exactly their demand;
* the summary is well-formed JSON for any run.
"""

import json
import math

import numpy as np
import pytest

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.fleet.cluster import FleetState
from repro.fleet.config import FleetConfig
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.workload import FleetJob
from repro.sim.events import Simulator
from repro.topology.builder import is_block_multiple

#: Shapes at or under one 8-block (2x2x2-grid) pod, sub-block included.
SHAPES = [(2, 2, 4), (4, 4, 4), (4, 4, 8), (4, 4, 12), (4, 8, 8),
          (8, 8, 8)]
#: Shapes bigger than an 8-block pod: cross-pod or nothing.
MACHINE_SHAPES = [(4, 8, 16), (8, 8, 16)]
HORIZON = 250_000.0


def _build(seed):
    rng = np.random.default_rng(seed)
    num_pods = int(rng.integers(1, 4))
    policy = (PlacementPolicy.OCS, PlacementPolicy.STATIC)[
        int(rng.integers(0, 2))]
    strategy = list(PlacementStrategy)[int(rng.integers(0, 3))]
    cross_pod = bool(rng.integers(0, 2))
    trunk_ports = int(rng.choice([0, 8, 24, 64]))
    config = FleetConfig(
        num_pods=num_pods, blocks_per_pod=8,
        max_job_blocks=min(32, num_pods * 8),
        horizon_seconds=HORIZON, arrival_window_seconds=HORIZON * 0.8,
        mean_job_seconds=40_000.0, strategy=strategy,
        reconfig_base_seconds=float(rng.choice([0.0, 60.0, 400.0])),
        defrag_max_moves=int(rng.integers(0, 4)),
        cross_pod=cross_pod, trunk_ports=trunk_ports,
        trunk_bandwidth_tax=float(rng.choice([0.0, 0.1, 0.5])))
    sim = Simulator()
    state = FleetState(num_pods, 8,
                       with_fabric=policy is PlacementPolicy.OCS,
                       trunk_ports=trunk_ports)
    telemetry = FleetTelemetry()
    scheduler = FleetScheduler(config, policy, sim, state, telemetry)

    shapes = SHAPES + (MACHINE_SHAPES if num_pods > 1 else [])
    num_jobs = int(rng.integers(6, 20))
    for job_id in range(num_jobs):
        shape = shapes[int(rng.integers(0, len(shapes)))]
        serving = shape == (2, 2, 4) or rng.random() < 0.15
        job = FleetJob(
            job_id=job_id, kind="serve" if serving else "train",
            model_type="LLM", shape=shape,
            arrival=float(rng.uniform(0, config.arrival_window_seconds)),
            work_seconds=float(rng.exponential(config.mean_job_seconds)),
            priority=2 if serving else int(rng.integers(0, 2)))
        sim.schedule_at(job.arrival, lambda j=job: scheduler.submit(j))

    for _ in range(int(rng.integers(0, 8))):
        pod_id = int(rng.integers(0, num_pods))
        block = int(rng.integers(0, 8))
        start = float(rng.uniform(0, HORIZON * 0.9))
        end = start + float(rng.exponential(10_000.0))
        sim.schedule_at(start,
                        lambda p=pod_id, b=block:
                        scheduler.on_block_down(p, b))
        if end < HORIZON:
            sim.schedule_at(end,
                            lambda p=pod_id, b=block:
                            scheduler.on_block_up(p, b))
    return scheduler


def _check_structure(scheduler):
    state, running, queue = (scheduler.state, scheduler.running,
                             scheduler.queue)
    # Every incremental index (free masks, counters, trunk ledger)
    # must match a from-scratch recomputation.
    state.check_invariants()
    held: dict[int, dict[int, set]] = {}
    for pod in state.pods:
        down_unowned = sum(1 for b in range(pod.num_blocks)
                           if not pod.up[b] and b not in pod.owner)
        assert pod.num_free + pod.num_busy + down_unowned == \
            pod.num_blocks
        for block, owner in pod.owner.items():
            assert pod.up[block], "a job holds a failed block"
            held.setdefault(owner, {}).setdefault(
                pod.pod_id, set()).add(block)
    # Machine-wide block conservation.
    machine_down_unowned = sum(
        1 for pod in state.pods for b in range(pod.num_blocks)
        if not pod.up[b] and b not in pod.owner)
    assert state.total_free + state.busy_blocks + machine_down_unowned \
        == state.total_blocks
    assert set(held) == set(running), "ownership map != running set"
    for job_id, by_pod in held.items():
        active = running[job_id]
        assert {pod_id for pod_id, _ in active.assignments} == \
            set(by_pod), "assignments disagree with pod ownership"
        for pod_id, blocks in active.assignments:
            assert set(blocks) == by_pod[pod_id]
        total_held = sum(len(blocks) for blocks in by_pod.values())
        assert total_held == active.job.blocks
        if active.is_cross_pod:
            # Only jobs too big for one pod ever span pods, and only
            # when the scheduler is allowed to use the trunk layer.
            assert scheduler.config.cross_pod
            assert active.job.blocks > state.pods[0].num_blocks
        elif active.pod_id is not None:
            assert len(by_pod) == 1
    queued = {a.job.job_id for a in queue}
    assert not queued & set(running), "job both queued and running"

    machine = state.machine
    if machine is None:
        return
    # Fabric circuits exist exactly for running block-multiple jobs.
    for pod in state.pods:
        for job_id in pod.jobs_on():
            active = running[job_id]
            if active.is_cross_pod:
                # A pod hosting only trunk-facing blocks may hold no
                # intra-pod circuits; the trunk ledger must hold them.
                assert machine.holds_trunks(job_id)
            else:
                assert pod.fabric.holds(job_id) == \
                    is_block_multiple(active.job.shape)
    # Trunk ports are never double-booked: recompute per-pod usage
    # from the held ledger and compare against capacity and the index.
    usage = [0] * machine.num_pods
    for job_id, ports in machine._held_trunks.items():
        assert job_id in running and running[job_id].is_cross_pod
        for pod_id, count in ports.items():
            usage[pod_id] += count
    for pod_id, used in enumerate(usage):
        assert 0 <= used <= machine.trunk_ports, "trunk overbooked"
        assert machine.trunk_budget()[pod_id] == machine.trunk_ports - used
    # Running cross-pod jobs hold exactly their placement's trunk ports.
    for job_id, active in running.items():
        if active.is_cross_pod:
            assert sum(machine._held_trunks.get(job_id, {}).values()) == \
                active.trunk_ports_held > 0


def _check_accounting(scheduler):
    telemetry = scheduler.telemetry
    parts = (telemetry.useful_block_seconds +
             telemetry.replay_block_seconds +
             telemetry.restore_block_seconds +
             telemetry.checkpoint_block_seconds +
             telemetry.reconfig_block_seconds)
    assert telemetry.busy_block_seconds == pytest.approx(parts, abs=1e-6)
    # Trunk stall is a sub-bucket of useful, never exceeding it, and
    # only a cross-pod-capable run can accrue any.
    assert 0.0 <= telemetry.trunk_stall_block_seconds <= \
        telemetry.useful_block_seconds + 1e-6
    if not scheduler.config.cross_pod:
        assert telemetry.trunk_stall_block_seconds == 0.0
        assert telemetry.cross_pod_block_seconds == 0.0
    for record in telemetry.records.values():
        assert record.useful_seconds <= record.work_seconds + 1e-6
        if record.completed:
            assert record.useful_seconds == \
                pytest.approx(record.work_seconds, abs=1e-6)
        assert record.interruptions >= 0 and record.preemptions >= 0
        assert record.trunk_stall_seconds >= 0.0
    trunk_total = scheduler.config.trunk_capacity \
        if scheduler.state.machine is not None else 0
    summary = telemetry.summary(
        total_blocks=scheduler.state.total_blocks,
        horizon_seconds=HORIZON, trunk_ports_total=trunk_total)
    text = json.dumps(summary, allow_nan=False)  # must not raise
    assert all(math.isfinite(v) for v in json.loads(text).values())
    assert 0.0 <= summary["goodput"] <= summary["utilization"]
    # The identity to tight tolerance, cross-pod runs included.
    identity = (summary["goodput"] + summary["replay_fraction"] +
                summary["restore_fraction"] +
                summary["checkpoint_fraction"] +
                summary["reconfig_fraction"])
    assert summary["utilization"] == pytest.approx(identity, abs=1e-9)
    assert 0.0 <= summary["trunk_utilization"] <= 1.0
    assert 0.0 <= summary["cross_pod_fraction"] <= 1.0


@pytest.mark.parametrize("seed", range(100))
def test_random_scenario_invariants(seed):
    scheduler = _build(seed)
    while scheduler.sim.queue.peek_time() is not None and \
            scheduler.sim.queue.peek_time() <= HORIZON:
        scheduler.sim.step()
        _check_structure(scheduler)
    scheduler.finalize(HORIZON)
    _check_accounting(scheduler)


class _AuditedScheduler(FleetScheduler):
    """Asserts the preemption victim-selection contract on every call.

    The contract: considering a victim hypothetically is free — a
    bystander in the considered set is never actually interrupted
    unless the final placement needs it.  "Needs" means its blocks
    intersect the placement; on the machine-wide path a cross-pod
    victim may instead be evicted for the trunk ports it releases, in
    which case those ports must sit on a pod the placement spans.  And
    a preemption attempt that yields no placement must evict no one.
    """

    def _preempt_for(self, active):
        held_before = {
            job_id: {(pod_id, block)
                     for pod_id, blocks in candidate.assignments
                     for block in blocks}
            for job_id, candidate in self.running.items()}
        machine = self.state.machine
        ports_before = {
            job_id: (machine.trunk_ports_of(job_id)
                     if machine is not None else {})
            for job_id in self.running}
        placement = super()._preempt_for(active)
        evicted = set(held_before) - set(self.running)
        if placement is None:
            assert not evicted, \
                f"job {active.job.job_id}: eviction without a placement"
            return None
        placed = {(pod.pod_id, block)
                  for pod, blocks in placement for block in blocks}
        placed_pods = {pod.pod_id for pod, _ in placement}
        cross_pod = len(placement) > 1
        for job_id in evicted:
            intersects = bool(held_before[job_id] & placed)
            ports_on_placement = cross_pod and any(
                pod_id in placed_pods
                for pod_id in ports_before[job_id])
            assert intersects or ports_on_placement, (
                f"bystander {job_id} interrupted: holds "
                f"{sorted(held_before[job_id])}, placement {sorted(placed)}")
        return placement


def _build_preempt_heavy(seed):
    """A contention-heavy random fleet: three priority bands, a low
    preemption bar, machine-wide shapes, and a tight-ish trunk bank —
    so both the pod-local and the cross-pod preemption paths fire."""
    rng = np.random.default_rng(1_000_000 + seed)
    num_pods = int(rng.integers(2, 5))
    strategy = list(PlacementStrategy)[int(rng.integers(0, 3))]
    policy = (PlacementPolicy.OCS, PlacementPolicy.STATIC)[
        int(rng.integers(0, 4) == 0)]  # mostly OCS; static still audited
    trunk_ports = int(rng.choice([8, 16, 24, 64]))
    config = FleetConfig(
        num_pods=num_pods, blocks_per_pod=8,
        max_job_blocks=min(32, num_pods * 8),
        horizon_seconds=HORIZON, arrival_window_seconds=HORIZON * 0.8,
        mean_job_seconds=60_000.0, strategy=strategy,
        preempt_priority=1,
        reconfig_base_seconds=float(rng.choice([0.0, 60.0])),
        defrag_max_moves=int(rng.integers(0, 3)),
        cross_pod=bool(rng.integers(0, 2)), trunk_ports=trunk_ports)
    sim = Simulator()
    state = FleetState(num_pods, 8,
                       with_fabric=policy is PlacementPolicy.OCS,
                       trunk_ports=trunk_ports)
    scheduler = _AuditedScheduler(config, policy, sim, state,
                                  FleetTelemetry())
    shapes = SHAPES + MACHINE_SHAPES
    for job_id in range(int(rng.integers(10, 24))):
        shape = shapes[int(rng.integers(0, len(shapes)))]
        priority = int(rng.integers(0, 3))
        job = FleetJob(
            job_id=job_id,
            kind="serve" if priority == 2 and rng.random() < 0.3
            else "train",
            model_type="LLM", shape=shape,
            arrival=float(rng.uniform(0, config.arrival_window_seconds)),
            work_seconds=float(rng.exponential(config.mean_job_seconds)),
            priority=priority)
        sim.schedule_at(job.arrival, lambda j=job: scheduler.submit(j))
    for _ in range(int(rng.integers(0, 5))):
        pod_id = int(rng.integers(0, num_pods))
        block = int(rng.integers(0, 8))
        start = float(rng.uniform(0, HORIZON * 0.9))
        end = start + float(rng.exponential(20_000.0))
        sim.schedule_at(start, lambda p=pod_id, b=block:
                        scheduler.on_block_down(p, b))
        if end < HORIZON:
            sim.schedule_at(end, lambda p=pod_id, b=block:
                            scheduler.on_block_up(p, b))
    return scheduler


@pytest.mark.parametrize("seed", range(100))
def test_preemption_victim_selection(seed):
    """No bystander in the considered set is ever interrupted unless
    the final placement needs it — across randomized contention-heavy
    scenarios including cross-pod victims (the audit lives inside
    :class:`_AuditedScheduler` and fires on every preemption)."""
    scheduler = _build_preempt_heavy(seed)
    scheduler.sim.run(until=HORIZON)
    _check_structure(scheduler)
    scheduler.finalize(HORIZON)
    _check_accounting(scheduler)
