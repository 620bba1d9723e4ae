"""Tests for per-pod OCS fabric state and reconfiguration plans."""

import pytest

from repro.errors import OCSError
from repro.fleet.fabric import PodFabric, ReconfigPlan
from repro.ocs.fabric import OCSFabric
from repro.ocs.reconfigure import block_torus_adjacencies, realize_slice


class TestBlockTorusAdjacencies:
    def test_every_block_contributes_one_plus_face_per_dim(self):
        adjacencies = block_torus_adjacencies((1, 1, 2), [3, 5])
        assert len(adjacencies) == 3 * 2
        for dim in range(3):
            lows = sorted(low for d, low, _ in adjacencies if d == dim)
            assert lows == [3, 5]

    def test_wraparound_closes_each_ring(self):
        adjacencies = block_torus_adjacencies((1, 1, 2), [3, 5])
        dim2 = {(low, high) for d, low, high in adjacencies if d == 2}
        assert dim2 == {(3, 5), (5, 3)}

    def test_single_block_wraps_onto_itself(self):
        adjacencies = block_torus_adjacencies((1, 1, 1), [7])
        assert adjacencies == [(0, 7, 7), (1, 7, 7), (2, 7, 7)]

    def test_grid_must_cover_blocks(self):
        with pytest.raises(OCSError):
            block_torus_adjacencies((1, 1, 2), [1, 2, 3])


class TestReconfigPlan:
    def test_circuit_count_matches_chip_level_wiring(self):
        # Block-granularity accounting must agree with the full
        # chip-level realization of the same slice on a real fabric.
        wiring = realize_slice(OCSFabric(64), (4, 4, 8))
        plan = PodFabric(64).plan(0, (4, 4, 8), [0, 1])
        assert plan.num_circuits == wiring.num_optical_links

    def test_moves_per_switch_is_slice_blocks(self):
        plan = PodFabric(64).plan(0, (4, 8, 8), [0, 1, 2, 3])
        assert plan.moves_per_switch == 4
        assert plan.num_circuits == 48 * 4

    def test_latency_scales_with_moves(self):
        plan = PodFabric(64).plan(0, (4, 4, 8), [0, 1])
        assert plan.latency_seconds(30.0, 0.5) == pytest.approx(31.0)

    def test_sub_block_plan_is_empty_and_free(self):
        plan = PodFabric(64).plan(0, (2, 2, 4), [5])
        assert plan.adjacencies == ()
        assert plan.num_circuits == 0
        assert plan.moves_per_switch == 0
        assert plan.latency_seconds(30.0, 0.5) == 0.0


class TestPodFabric:
    def test_apply_release_roundtrip(self):
        fabric = PodFabric(8)
        plan = fabric.plan(1, (4, 4, 8), [2, 6])
        assert fabric.apply(plan) == 96
        assert fabric.holds(1)
        assert fabric.bank.total_circuits == 96
        assert fabric.release(1) == 96
        assert not fabric.holds(1)
        assert fabric.bank.total_circuits == 0

    def test_concurrent_jobs_use_disjoint_ports(self):
        fabric = PodFabric(8)
        fabric.apply(fabric.plan(1, (4, 4, 8), [0, 1]))
        fabric.apply(fabric.plan(2, (4, 4, 8), [2, 3]))
        fabric.apply(fabric.plan(3, (4, 4, 4), [7]))
        assert fabric.bank.total_circuits == 96 + 96 + 48
        assert fabric.release(2) == 96
        assert fabric.bank.total_circuits == 96 + 48

    def test_double_apply_rejected(self):
        fabric = PodFabric(8)
        fabric.apply(fabric.plan(1, (4, 4, 4), [0]))
        with pytest.raises(OCSError):
            fabric.apply(fabric.plan(1, (4, 4, 4), [1]))

    def test_release_without_circuits_is_harmless(self):
        fabric = PodFabric(8)
        assert fabric.release(99) == 0
        fabric.apply(fabric.plan(1, (2, 2, 4), [0]))  # sub-block: no-op
        assert fabric.release(1) == 0
