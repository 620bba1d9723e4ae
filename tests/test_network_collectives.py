"""Tests for the collective prices of repro.network.collectives."""

import pytest

from repro.errors import ConfigurationError
from repro.network import AxisGeometry
from repro.network.collectives import (allreduce_lower_bound,
                                       ring_allreduce_time)


def allreduce(shape, num_bytes, link_bandwidth):
    """Bandwidth term of the split-schedule all-reduce on `shape`."""
    return AxisGeometry(shape, link_bandwidth, alpha=0.0).allreduce(num_bytes)


def single_pass(shape, num_bytes, link_bandwidth):
    """One dimension-ordered pass over every ring, the whole buffer at
    once: the schedule the split replaced, kept as a reference."""
    total, shard = 0.0, num_bytes
    rings = [n for n in shape if n >= 2]
    for n in rings:
        total += (n - 1) / n * shard / (2 * link_bandwidth)
        shard /= n
    for n in reversed(rings):
        shard *= n
        total += (n - 1) / n * shard / (2 * link_bandwidth)
    return total


def closed_form_alltoall(shape, num_bytes, link_bandwidth, wrap=True):
    """The bisection closed form all-to-all used to be priced with: the
    cut across the longest ring carries N^2/4 pair transfers over 2N/n_max
    links per direction (half that without wraparound)."""
    n = shape[0] * shape[1] * shape[2]
    per_pair = num_bytes / (n - 1)
    serial = n * max(shape) / (8.0 if wrap else 4.0)
    return serial * per_pair / link_bandwidth


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
        t1 = allreduce((8, 8, 8), 1e6, 50e9)
        t2 = allreduce((8, 8, 8), 2e6, 50e9)
        assert t2 == pytest.approx(2 * t1)

    def test_all_dims_faster_than_single_pass(self):
        # Splitting over three dimensions keeps all six ports busy: a
        # third of the single pass on every 3D torus, a half on 8x8x1.
        for shape in ((4, 4, 4), (4, 4, 8), (8, 8, 8), (16, 16, 16)):
            split = allreduce(shape, 1e6, 50e9)
            assert single_pass(shape, 1e6, 50e9) == pytest.approx(3 * split)
        plane = allreduce((8, 8, 1), 1e6, 50e9)
        assert single_pass((8, 8, 1), 1e6, 50e9) == pytest.approx(2 * plane)

    def test_above_lower_bound(self):
        shape = (8, 8, 8)
        t = allreduce(shape, 1e6, 50e9)
        bound = allreduce_lower_bound(shape, 1e6, 50e9)
        assert t >= bound * 0.999

    def test_bigger_torus_similar_time(self):
        # Weak dependence on N: (n-1)/n saturates.
        small = allreduce((4, 4, 4), 1e6, 50e9)
        large = allreduce((16, 16, 16), 1e6, 50e9)
        assert large < 1.5 * small

    def test_degenerate_dims_ignored(self):
        t = allreduce((8, 1, 1), 1e6, 50e9)
        assert t == pytest.approx(ring_allreduce_time(8, 1e6, 50e9))

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce((4, 4, 4), -1.0, 50e9)

    @pytest.mark.parametrize("shape, num_bytes, link_bandwidth", [
        ((1, 1, 1), -1.0, 50e9),          # checked before the no-ring return
        ((4, 4, 4), float("nan"), 50e9),
        ((4, 4, 4), 1e6, 0.0),
        ((4, 4, 4), 1e6, float("inf")),
        ((1, 1, 1), 1e6, -50e9),
        ((8, 8), float("nan"), 50e9),
        ((8,), 1e6, float("inf")),
        ((8.5,), 1e6, 50e9),
        ((4, 4, 4, 4), 1e6, 50e9),
    ])
    def test_bad_inputs_rejected(self, shape, num_bytes, link_bandwidth):
        with pytest.raises(ConfigurationError):
            allreduce(shape, num_bytes, link_bandwidth)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            AxisGeometry((8,), 50e9, alpha=alpha)

    def test_mesh_like_slower_than_torus(self):
        # Wraparound doubles ring bandwidth; the paper's Section 2.6 claim.
        torus_time = allreduce((8, 8, 8), 1e6, 50e9)
        # A mesh ring behaves like a ring with half bandwidth per phase.
        mesh_equiv = allreduce((8, 8, 8), 1e6, 25e9)
        assert mesh_equiv == pytest.approx(2 * torus_time)


class TestSplitScheduleGolden:
    """The split schedule is the one Table 3 and Section 7.3 were
    calibrated on: these are the all-reduce times of that schedule's
    previous implementation, to the last bit."""

    GOLDEN = {
        (8, 8, 8): (6.653645833333332e-06, 0.007144297813333332,
                    0.0008214377497265625),
        (4, 4, 8): (6.614583333333334e-06, 0.007102354773333333,
                    0.00081661521890625),
        (4, 8, 16): (6.6536458333333336e-06, 0.007144297813333333,
                     0.0008214377497265626),
        (3, 4, 5): (6.555555555555555e-06, 0.007038974179555556,
                    0.000809327839),
        (8, 1, 1): (1.75e-05, 0.01879048192, 0.0021604938075),
        (4, 4, 1): (9.375000000000001e-06, 0.0100663296,
                    0.001157407396875),
    }
    BYTES = (1e6, float(1 << 30), 123456789.0)

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_bit_identical(self, shape):
        times = tuple(allreduce(shape, b, 50e9) for b in self.BYTES)
        assert times == self.GOLDEN[shape]


class TestAllToAll:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 8), (8, 8, 8),
                                       (8, 8, 16), (8, 8, 1), (8, 1, 1)])
    def test_exact_matches_closed_form_on_even_tori(self, shape):
        exact = AxisGeometry(shape, 50e9, alpha=0.0).alltoall(1e9)
        assert exact == pytest.approx(
            closed_form_alltoall(shape, 1e9, 50e9), rel=1e-12)

    def test_exact_exceeds_closed_form_on_sub_block_mesh(self):
        # The 32-chip Section 7.9 slice: the busiest mesh link carries 39
        # pair-transfers per unit rate where the closed form assumed 32.
        exact = AxisGeometry((2, 4, 4), 50e9, wrap=False,
                             alpha=0.0).alltoall(1e9)
        closed = closed_form_alltoall((2, 4, 4), 1e9, 50e9, wrap=False)
        assert exact / closed == pytest.approx(39 / 32, rel=1e-12)
        # With the default 1 us alpha on a 1 MB exchange, 1.2086x.
        priced = AxisGeometry((2, 4, 4), 50e9, wrap=False).alltoall(1e6)
        closed = closed_form_alltoall((2, 4, 4), 1e6, 50e9, wrap=False)
        assert priced / (closed + 1e-6) == pytest.approx(1.2086, abs=5e-5)

    def test_alpha_added_once(self):
        fast = AxisGeometry((8, 8), 50e9, alpha=0.0).alltoall(1e9)
        slow = AxisGeometry((8, 8), 50e9, alpha=1e-6).alltoall(1e9)
        assert slow == pytest.approx(fast + 1e-6, rel=1e-12)

    def test_ring_order_does_not_matter(self):
        a = AxisGeometry((4, 8), 50e9).alltoall(1e9)
        b = AxisGeometry((8, 1, 4), 50e9).alltoall(1e9)
        assert a == pytest.approx(b, rel=1e-12)
