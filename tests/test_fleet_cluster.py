"""Tests for pod/fleet inventory state and single-slice placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PlacementPolicy, SliceScheduler
from repro.errors import SchedulingError
from repro.fleet.cluster import FleetState, Pod


class TestPlaceOne:
    def test_ocs_takes_any_free_blocks(self):
        healthy = [True] * 64
        healthy[0] = healthy[5] = False
        scheduler = SliceScheduler(healthy)
        blocks = scheduler.place_one((4, 4, 8), PlacementPolicy.OCS)
        assert blocks is not None and len(blocks) == 2
        assert 0 not in blocks and 5 not in blocks

    def test_static_needs_contiguity(self):
        # Checkerboard the grid: no two adjacent blocks are both free.
        healthy = []
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    healthy.append((x + y + z) % 2 == 0)
        scheduler = SliceScheduler(healthy)
        assert scheduler.place_one((4, 4, 8),
                                   PlacementPolicy.STATIC) is None
        assert scheduler.place_one((4, 4, 8),
                                   PlacementPolicy.OCS) is not None

    def test_matches_pack_first_placement(self):
        healthy = [True] * 64
        healthy[3] = False
        scheduler = SliceScheduler(healthy)
        for policy in PlacementPolicy:
            packed = scheduler.pack((4, 4, 8), policy)
            assert scheduler.place_one((4, 4, 8), policy) == \
                packed.placements[0]

    def test_no_space_returns_none(self):
        scheduler = SliceScheduler([False] * 64)
        assert scheduler.place_one((4, 4, 4),
                                   PlacementPolicy.OCS) is None


class TestPod:
    def test_assign_release_roundtrip(self):
        pod = Pod(0, 8)
        pod.assign([1, 2], job_id=7)
        assert pod.num_free == 6
        assert pod.jobs_on() == [7]
        assert pod.release(7) == [1, 2]
        assert pod.num_free == 8

    def test_cannot_assign_taken_block(self):
        pod = Pod(0, 8)
        pod.assign([1], job_id=1)
        with pytest.raises(SchedulingError):
            pod.assign([1], job_id=2)

    def test_block_down_reports_victim(self):
        pod = Pod(0, 8)
        pod.assign([3], job_id=9)
        assert pod.block_down(3) == 9
        assert pod.block_down(4) is None
        assert not pod.up[3] and not pod.up[4]
        pod.block_up(3)
        assert pod.up[3] and not pod.up[4]

    def test_down_block_not_free(self):
        pod = Pod(0, 8)
        pod.block_down(0)
        assert pod.free_mask()[0] is False


class TestFleetState:
    def test_totals(self):
        state = FleetState(num_pods=3, blocks_per_pod=27)
        assert state.total_blocks == 81
        state.pods[1].assign([0, 1], job_id=1)
        state.pods[2].block_down(5)
        assert state.busy_blocks == 2
        assert sum(int((~pod.up).sum()) for pod in state.pods) == 1

    def test_pods_by_space_prefers_emptiest(self):
        state = FleetState(num_pods=2, blocks_per_pod=8)
        state.pods[0].assign([0, 1, 2], job_id=1)
        assert [p.pod_id for p in state.pods_by_space()] == [1, 0]


#: (operation, pod pick, argument pick) steps over a FleetState.
_STEPS = st.lists(st.tuples(
    st.sampled_from(["assign", "release", "block_down", "block_up"]),
    st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)), max_size=60)


class TestFreeCountIndex:
    @settings(max_examples=150, deadline=None)
    @given(num_pods=st.integers(1, 64),
           blocks_per_pod=st.sampled_from([8, 27, 64]), steps=_STEPS)
    def test_shared_counts_match_pod_counters(self, num_pods,
                                              blocks_per_pod, steps):
        state = FleetState(num_pods, blocks_per_pod)
        next_job = 0
        for op, pod_pick, arg in steps:
            pod = state.pods[pod_pick % num_pods]
            if op == "assign":
                blocks = pod.first_free(1 + arg % blocks_per_pod)
                if blocks is not None:
                    pod.assign(blocks, job_id=next_job)
                    next_job += 1
            elif op == "release":
                jobs = pod.jobs_on()
                if jobs:
                    pod.release(jobs[arg % len(jobs)])
            elif op == "block_down":
                pod.block_down(arg % blocks_per_pod)
            else:
                pod.block_up(arg % blocks_per_pod)
            counters = [p.num_free for p in state.pods]
            rescanned = [sum(1 for block in range(blocks_per_pod)
                             if p.up[block] and block not in p.owner)
                         for p in state.pods]
            assert counters == rescanned
            assert state.free_counts == counters
            assert state.total_free == sum(counters)
            assert state.free_by_pod() == list(enumerate(counters))
        state.check_invariants()

    def test_rescan_catches_a_drifted_shared_count(self):
        state = FleetState(num_pods=3, blocks_per_pod=8)
        state.pods[1].assign([0, 1], job_id=1)
        state.free_counts[2] -= 1  # the pod's own counter still says 8
        with pytest.raises(SchedulingError,
                           match="shared free-count list drifted"):
            state.check_invariants()
