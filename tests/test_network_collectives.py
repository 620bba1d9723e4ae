"""Tests for collective time models and functional executions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import (allreduce_time_torus, functional_alltoall,
                           functional_ring_allreduce)
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


class TestFunctionalAllReduce:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        buffers = [rng.normal(size=24) for _ in range(6)]
        expected = np.sum(buffers, axis=0)
        results = functional_ring_allreduce(buffers)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_two_nodes(self):
        a, b = np.arange(4.0), np.ones(4)
        results = functional_ring_allreduce([a, b])
        np.testing.assert_allclose(results[0], a + b)
        np.testing.assert_allclose(results[1], a + b)

    def test_single_node_identity(self):
        a = np.arange(5.0)
        (result,) = functional_ring_allreduce([a])
        np.testing.assert_allclose(result, a)

    def test_uneven_chunks(self):
        # Buffer length not divisible by node count.
        buffers = [np.full(7, float(i)) for i in range(3)]
        results = functional_ring_allreduce(buffers)
        for result in results:
            np.testing.assert_allclose(result, np.full(7, 3.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            functional_ring_allreduce([])

    def test_inputs_not_mutated(self):
        buffers = [np.ones(8), np.ones(8) * 2]
        snapshots = [b.copy() for b in buffers]
        functional_ring_allreduce(buffers)
        for before, after in zip(snapshots, buffers):
            np.testing.assert_array_equal(before, after)


class TestFunctionalAllToAll:
    def test_transpose_semantics(self):
        n = 4
        buffers = [[np.array([i * 10 + j]) for j in range(n)]
                   for i in range(n)]
        received = functional_alltoall(buffers)
        for j in range(n):
            for i in range(n):
                assert received[j][i][0] == i * 10 + j

    def test_ragged_rejected(self):
        with pytest.raises(ConfigurationError):
            functional_alltoall([[np.zeros(1)], [np.zeros(1), np.zeros(1)]])
