"""Tests for analytic all-to-all throughput (Figure 6 methodology)."""

import pytest

from repro.network import alltoall_analysis
from repro.topology import Mesh3D, Torus3D, TwistedTorus3D


class TestAllToAllAnalysis:
    def test_throughput_below_bounds(self):
        for topo in [Torus3D((4, 4, 8)), TwistedTorus3D((4, 4, 8)),
                     Torus3D((4, 4, 4))]:
            analysis = alltoall_analysis(topo, 50e9)
            assert analysis.per_node_throughput <= analysis.capacity_bound * 1.001
            assert analysis.per_node_throughput <= analysis.injection_peak

    def test_figure6_ratio_448(self):
        reg = alltoall_analysis(Torus3D((4, 4, 8)), 50e9)
        twi = alltoall_analysis(TwistedTorus3D((4, 4, 8)), 50e9)
        ratio = twi.per_node_throughput / reg.per_node_throughput
        assert 1.3 <= ratio <= 1.8  # paper: 1.63x

    def test_figure6_ratio_488(self):
        reg = alltoall_analysis(Torus3D((4, 8, 8)), 50e9)
        twi = alltoall_analysis(TwistedTorus3D((4, 8, 8)), 50e9)
        ratio = twi.per_node_throughput / reg.per_node_throughput
        assert 1.15 <= ratio <= 1.6  # paper: 1.31x

    def test_efficiency_at_most_one(self):
        for topo in [Torus3D((4, 4, 8)), Mesh3D((4, 4, 4))]:
            analysis = alltoall_analysis(topo, 50e9)
            assert 0 < analysis.efficiency_vs_ideal <= 1.0 + 1e-9

    def test_regular_torus_is_bisection_limited(self):
        # 4x4x8: the z-cut binds; throughput ~= one link's bandwidth.
        analysis = alltoall_analysis(Torus3D((4, 4, 8)), 50e9)
        assert analysis.per_node_throughput == pytest.approx(50e9, rel=0.05)

    def test_mesh_worse_than_torus(self):
        mesh = alltoall_analysis(Mesh3D((4, 4, 4)), 50e9)
        torus = alltoall_analysis(Torus3D((4, 4, 4)), 50e9)
        assert mesh.per_node_throughput < torus.per_node_throughput

    def test_scales_with_link_bandwidth(self):
        slow = alltoall_analysis(Torus3D((4, 4, 4)), 25e9)
        fast = alltoall_analysis(Torus3D((4, 4, 4)), 50e9)
        assert fast.per_node_throughput == pytest.approx(
            2 * slow.per_node_throughput)

    def test_tiny_topology_rejected(self):
        with pytest.raises(ValueError):
            alltoall_analysis(Torus3D((1, 1, 1)), 50e9)


class TestFigure6Golden:
    # Pinned (per-node throughput, ideal peak) in bytes/s at 50 GB/s links.
    # Loads are summed per link class, so a change in summation order may
    # move the last bits: compare to rel=1e-12.
    GOLDEN = [
        (Torus3D, (4, 4, 8), 49609374999.99999, 49609375000.0),
        (TwistedTorus3D, (4, 4, 8), 75595238095.23805, 82112068965.51724),
        (Torus3D, (4, 8, 8), 49804687499.99997, 49804687500.0),
        (TwistedTorus3D, (4, 8, 8), 69293478260.8695, 69293478260.86957),
    ]

    @pytest.mark.parametrize("cls, shape, per_node, ideal_peak", GOLDEN)
    def test_pinned(self, cls, shape, per_node, ideal_peak):
        analysis = alltoall_analysis(cls(shape), 50e9)
        assert analysis.per_node_throughput == pytest.approx(per_node,
                                                             rel=1e-12)
        assert analysis.ideal_peak == pytest.approx(ideal_peak, rel=1e-12)
