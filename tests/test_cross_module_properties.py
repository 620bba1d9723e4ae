"""Property-based tests of cross-module invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import PlacementPolicy, SliceScheduler
from repro.core.slicing import legal_block_shapes
from repro.network.fairshare import max_min_fair_rates
from repro.ocs import OCSFabric, realize_slice
from repro.sparsecore import (CategoricalFeature, DistributedEmbedding,
                              EmbeddingTable, ShardingPlan, ShardingStrategy,
                              synthetic_batch)
from repro.topology import TwistedTorus3D, build_topology
from repro.topology.properties import bfs_distances

block_shapes = st.sampled_from(
    [(4, 4, 4), (4, 4, 8), (4, 8, 8), (4, 4, 12), (8, 8, 8), (4, 8, 12)])

twistable_shapes = st.sampled_from([(4, 4, 8), (4, 8, 8), (8, 8, 16)])


class TestWiringInvariants:
    @given(block_shapes, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_wiring_covers_topology(self, shape, twisted):
        from repro.topology.twisted import is_twistable
        if twisted and not is_twistable(shape):
            twisted = False
        fabric = OCSFabric()
        wiring = realize_slice(fabric, shape, twisted=twisted)
        assert (wiring.num_optical_links + wiring.num_electrical_links
                == wiring.topology.num_links)
        assert fabric.total_circuits() == wiring.num_optical_links

    @given(block_shapes)
    @settings(max_examples=8, deadline=None)
    def test_optical_fraction_formula(self, shape):
        """Optical links = total - 144 electrical per block."""
        fabric = OCSFabric()
        wiring = realize_slice(fabric, shape)
        blocks = (shape[0] // 4) * (shape[1] // 4) * (shape[2] // 4)
        assert wiring.num_electrical_links == 144 * blocks


class TestTwistedInvariants:
    @given(twistable_shapes)
    @settings(max_examples=6, deadline=None)
    def test_twisted_regular_connected_and_6_regular(self, shape):
        twisted = TwistedTorus3D(shape)
        assert {twisted.degree(node) for node in twisted.nodes} == {6}
        assert len(bfs_distances(twisted, (0, 0, 0))) == twisted.num_nodes

    @given(twistable_shapes)
    @settings(max_examples=4, deadline=None)
    def test_distance_profile_vertex_transitive(self, shape):
        twisted = TwistedTorus3D(shape)
        reference = sorted(bfs_distances(twisted, (0, 0, 0)).values())
        probe = (shape[0] - 1, shape[1] // 2, shape[2] - 1)
        assert sorted(bfs_distances(twisted, probe).values()) == reference


class TestSchedulerInvariants:
    @given(st.integers(0, 2**20 - 1), block_shapes,
           st.sampled_from(list(PlacementPolicy)))
    @settings(max_examples=25, deadline=None)
    def test_packing_disjoint_and_healthy(self, bits, shape, policy):
        healthy = [(bits >> (i % 20)) & 1 == 1 for i in range(64)]
        outcome = SliceScheduler(healthy).pack(shape, policy)
        used = [b for placement in outcome.placements for b in placement]
        assert len(used) == len(set(used))
        assert all(healthy[b] for b in used)
        assert 0.0 <= outcome.goodput <= 1.0

    @given(st.integers(1, 64))
    @settings(max_examples=10, deadline=None)
    def test_legal_block_shapes_exact_volume(self, blocks):
        for shape in legal_block_shapes(blocks):
            assert shape[0] * shape[1] * shape[2] == blocks * 64
            assert shape[0] <= shape[1] <= shape[2]


class TestFairShareInvariants:
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_max_min_property(self, routes):
        """Feasible, and every flow is blocked by a saturated link."""
        caps = {link: 2.0 + link for link in range(6)}
        rates = max_min_fair_rates(routes, caps)
        usage = {link: 0.0 for link in caps}
        for route, rate in zip(routes, rates):
            for link in route:
                usage[link] += rate
        for link, cap in caps.items():
            assert usage[link] <= cap + 1e-6
        for route, rate in zip(routes, rates):
            saturated = any(usage[link] >= caps[link] - 1e-6
                            for link in route)
            assert saturated, "a flow could still grow"


class TestEmbeddingInvariants:
    @given(st.integers(1, 8), st.integers(1, 64),
           st.sampled_from([ShardingStrategy.ROW,
                            ShardingStrategy.REPLICATED]))
    @settings(max_examples=15, deadline=None)
    def test_distributed_forward_equals_reference(self, chips, batch,
                                                  strategy):
        table = EmbeddingTable("t", vocab_size=200, dim=6)
        plan = ShardingPlan(num_chips=chips, strategies={"t": strategy})
        engine = DistributedEmbedding(tables={"t": table},
                                      feature_to_table={"f": "t"},
                                      plan=plan)
        feature = CategoricalFeature("f", vocab_size=200, avg_valency=3)
        batches = {"f": synthetic_batch(feature, batch, seed=batch)}
        out = engine.forward(batches)["f"]
        np.testing.assert_allclose(out, table.lookup(batches["f"]))
        stats = engine.last_traffic
        assert stats.lookups_after_dedup <= stats.lookups_before_dedup


class TestBuilderInvariants:
    @given(block_shapes)
    @settings(max_examples=8, deadline=None)
    def test_block_slices_are_6_regular_tori(self, shape):
        topology = build_topology(shape)
        assert topology.kind == "torus"
        assert {topology.degree(node) for node in topology.nodes} == {6}
        assert topology.num_links == topology.num_nodes * 3
