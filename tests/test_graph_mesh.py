"""Tests for repro.graph.mesh and the per-axis collective prices."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.graph.mesh import DeviceMesh, MeshAxis
from repro.network.collectives import AxisGeometry, ring_allreduce_time


def mesh_8x8x8():
    return DeviceMesh((8, 8, 8), [MeshAxis("data", 8, (0,)),
                                  MeshAxis("model1", 64, (1, 2))])


class TestDeviceMesh:
    def test_basic_queries(self):
        mesh = mesh_8x8x8()
        assert mesh.num_chips == 512
        assert mesh.axis_size("data") == 8
        assert mesh.axis_sizes == {"data": 8, "model1": 64}
        assert mesh.axis_names == ["data", "model1"]

    def test_rejects_duplicate_axis(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), [MeshAxis("a", 4, (0,)),
                                   MeshAxis("a", 16, (1, 2))])

    def test_rejects_reclaimed_dim(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), [MeshAxis("a", 4, (0,)),
                                   MeshAxis("b", 16, (0, 1))])

    def test_rejects_wrong_axis_size(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), [MeshAxis("a", 8, (0,)),
                                   MeshAxis("b", 8, (1, 2))])

    def test_rejects_uncovered_chips(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), [MeshAxis("a", 4, (0,))])

    def test_size_one_axis_claims_nothing(self):
        mesh = DeviceMesh((4, 4, 4), [MeshAxis("pipeline", 1, ()),
                                      MeshAxis("data", 64, (0, 1, 2))])
        geometry = mesh.axis_geometry("pipeline")
        assert geometry.size == 1
        assert geometry.allreduce(1e6) == 0.0

    def test_axis_geometry_ring_sizes(self):
        mesh = mesh_8x8x8()
        assert mesh.axis_geometry("data").ring_sizes == (8,)
        assert mesh.axis_geometry("model1").ring_sizes == (8, 8)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            mesh_8x8x8().axis("bogus")

    def test_cost_model_covers_all_axes(self):
        mesh = mesh_8x8x8()
        for kind in ("all_reduce", "all_gather", "all_to_all"):
            for axis in mesh.axis_names:
                assert mesh.collective_time(kind, axis, 1e6) > 0

    def test_collective_time_is_the_axis_price(self):
        mesh = mesh_8x8x8()
        geometry = mesh.axis_geometry("model1")
        assert mesh.collective_time("all_reduce", "model1", 1e6) == \
            geometry.allreduce(1e6)
        assert mesh.collective_time("all_gather", "model1", 1e6) == \
            geometry.allgather(1e6)
        assert mesh.collective_time("all_to_all", "model1", 1e6) == \
            geometry.alltoall(1e6)

    def test_unknown_axis_and_kind_rejected(self):
        mesh = mesh_8x8x8()
        with pytest.raises(ConfigurationError):
            mesh.collective_time("all_reduce", "bogus", 1)
        with pytest.raises(ConfigurationError):
            mesh.collective_time("permute", "data", 1)

    def test_bad_link_parameters_rejected_at_construction(self):
        axes = [MeshAxis("data", 64, (0, 1, 2))]
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), axes, link_bandwidth=float("nan"))
        with pytest.raises(ConfigurationError):
            DeviceMesh((4, 4, 4), axes, alpha=-1e-6)

    def test_describe(self):
        text = mesh_8x8x8().describe()
        assert "data=8(d0)" in text
        assert "model1=64(d1,d2)" in text


class TestAxisGeometry:
    def test_single_ring_matches_collectives_module(self):
        geometry = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9,
                                alpha=0.0)
        expected = ring_allreduce_time(8, 1e9, 50e9)
        assert geometry.allreduce(1e9) == pytest.approx(expected)

    def test_allgather_is_half_allreduce(self):
        geometry = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9,
                                alpha=0.0)
        assert geometry.allgather(1e9) == pytest.approx(
            geometry.allreduce(1e9) / 2)

    def test_allgather_uses_the_split(self):
        # Three chunks of a third each gather in parallel, so the time is
        # a third of one pass gathering the whole buffer: sweeps ending at
        # 1/64, 1/8 and all of it, 7/8 of each over both directions.
        geometry = AxisGeometry(ring_sizes=(8, 8, 8), link_bandwidth=50e9,
                                alpha=0.0)
        one_pass = sum(7 / 8 * 1e9 / 8 ** k / 100e9 for k in range(3))
        assert geometry.allgather(1e9) == pytest.approx(one_pass / 3)

    def test_alpha_adds_latency(self):
        fast = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9, alpha=0.0)
        slow = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9, alpha=1e-6)
        steps = slow.num_steps()
        assert slow.allreduce(1e6) == pytest.approx(
            fast.allreduce(1e6) + steps * 1e-6)

    def test_mesh_halves_ring_bandwidth(self):
        torus = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9,
                             wrap=True, alpha=0.0)
        mesh = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9,
                            wrap=False, alpha=0.0)
        assert mesh.allreduce(1e9) == pytest.approx(2 * torus.allreduce(1e9))

    def test_alltoall_ring_formula(self):
        # Ring of n: per-link load n^2/8 pair-bytes.
        geometry = AxisGeometry(ring_sizes=(8,), link_bandwidth=50e9,
                                alpha=0.0)
        per_pair = 1e9 / 7
        expected = 8 * 8 / 8 * per_pair / 50e9
        assert geometry.alltoall(1e9) == pytest.approx(expected)

    def test_alltoall_size_one_is_free(self):
        geometry = AxisGeometry(ring_sizes=(1,), link_bandwidth=50e9)
        assert geometry.alltoall(1e9) == 0.0

    def test_negative_bytes_rejected(self):
        geometry = AxisGeometry(ring_sizes=(4,), link_bandwidth=50e9)
        with pytest.raises(ConfigurationError):
            geometry.allreduce(-1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            AxisGeometry(ring_sizes=(), link_bandwidth=50e9)
        with pytest.raises(ConfigurationError):
            AxisGeometry(ring_sizes=(0,), link_bandwidth=50e9)
        with pytest.raises(ConfigurationError):
            AxisGeometry(ring_sizes=(4,), link_bandwidth=-1)


@given(st.integers(2, 16), st.floats(1e3, 1e10))
def test_allreduce_scales_linearly_in_bytes(ring, num_bytes):
    """Doubling the buffer doubles the bandwidth term exactly."""
    geometry = AxisGeometry(ring_sizes=(ring,), link_bandwidth=50e9,
                            alpha=0.0)
    one = geometry.allreduce(num_bytes)
    two = geometry.allreduce(2 * num_bytes)
    assert two == pytest.approx(2 * one, rel=1e-9)


@given(st.integers(2, 12), st.integers(2, 12))
def test_multidim_allreduce_cheaper_than_flat_ring(a, b):
    """Dimension-ordered all-reduce over (a, b) beats one ring of a*b."""
    multi = AxisGeometry(ring_sizes=(a, b), link_bandwidth=50e9, alpha=0.0)
    flat = AxisGeometry(ring_sizes=(a * b,), link_bandwidth=50e9, alpha=0.0)
    assert multi.allreduce(1e9) <= flat.allreduce(1e9) + 1e-12
