"""Tests for collective time models."""

import pytest

from repro.errors import ConfigurationError
from repro.network import allreduce_time_torus
from repro.network.collectives import (allreduce_lower_bound,
                                       ring_allreduce_time)


class TestRingAllReduceTime:
    def test_two_node_ring(self):
        # (n-1)/n = 1/2 of the buffer each way, both phases.
        t = ring_allreduce_time(2, 1000.0, 10.0)
        assert t == pytest.approx(2 * 0.5 * 1000 / 20)

    def test_single_node_free(self):
        assert ring_allreduce_time(1, 1000.0, 10.0) == 0.0

    def test_asymptote(self):
        # Large rings approach bytes / link_bw (bidirectional, 2 phases).
        t = ring_allreduce_time(1000, 1e6, 1e3)
        assert t == pytest.approx(1e6 / 1e3, rel=0.01)


class TestTorusAllReduce:
    def test_scales_linearly_with_bytes(self):
        t1 = allreduce_time_torus((8, 8, 8), 1e6, 50e9)
        t2 = allreduce_time_torus((8, 8, 8), 2e6, 50e9)
        assert t2 == pytest.approx(2 * t1)

    def test_all_dims_faster_than_single_pass(self):
        multi = allreduce_time_torus((8, 8, 8), 1e6, 50e9)
        single = allreduce_time_torus((8, 8, 8), 1e6, 50e9,
                                      use_all_dims=False)
        assert multi < single

    def test_above_lower_bound(self):
        shape = (8, 8, 8)
        t = allreduce_time_torus(shape, 1e6, 50e9)
        bound = allreduce_lower_bound(shape, 1e6, 50e9)
        assert t >= bound * 0.999

    def test_bigger_torus_similar_time(self):
        # Weak dependence on N: (n-1)/n saturates.
        small = allreduce_time_torus((4, 4, 4), 1e6, 50e9)
        large = allreduce_time_torus((16, 16, 16), 1e6, 50e9)
        assert large < 1.5 * small

    def test_degenerate_dims_ignored(self):
        t = allreduce_time_torus((8, 1, 1), 1e6, 50e9)
        assert t == pytest.approx(ring_allreduce_time(8, 1e6, 50e9))

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce_time_torus((4, 4, 4), -1.0, 50e9)

    @pytest.mark.parametrize("shape, num_bytes, link_bandwidth", [
        ((1, 1, 1), -1.0, 50e9),          # checked before the no-ring return
        ((4, 4, 4), float("nan"), 50e9),
        ((4, 4, 4), 1e6, 0.0),
        ((4, 4, 4), 1e6, float("inf")),
        ((1, 1, 1), 1e6, -50e9),
    ])
    def test_bad_inputs_rejected(self, shape, num_bytes, link_bandwidth):
        with pytest.raises(ConfigurationError):
            allreduce_time_torus(shape, num_bytes, link_bandwidth)

    def test_mesh_like_slower_than_torus(self):
        # Wraparound doubles ring bandwidth; the paper's Section 2.6 claim.
        torus_time = allreduce_time_torus((8, 8, 8), 1e6, 50e9)
        # A mesh ring behaves like a ring with half bandwidth per phase.
        mesh_equiv = allreduce_time_torus((8, 8, 8), 1e6, 25e9)
        assert mesh_equiv == pytest.approx(2 * torus_time)
