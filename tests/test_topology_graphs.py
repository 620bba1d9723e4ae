"""Tests for Torus3D, TwistedTorus3D, Mesh3D structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import Mesh3D, Torus3D, TwistedTorus3D, is_twistable
from repro.topology.coords import torus_distance
from repro.topology.properties import (bfs_distances, degree_histogram,
                                       is_regular)
from repro.topology.twisted import canonical_twist, figure5_example

small_dims = st.integers(1, 6)


class TestTorus:
    def test_cube_is_6_regular(self):
        torus = Torus3D((4, 4, 4))
        assert torus.num_nodes == 64
        assert is_regular(torus, 6)
        assert torus.num_links == 64 * 6 // 2

    def test_2d_torus_degenerate_z(self):
        torus = Torus3D((8, 8, 1))
        assert is_regular(torus, 4)
        assert torus.num_links == 128

    def test_size2_dim_single_link(self):
        torus = Torus3D((2, 1, 1))
        assert torus.num_links == 1
        assert torus.degree((0, 0, 0)) == 1

    def test_size1_no_self_loop(self):
        torus = Torus3D((1, 1, 1))
        assert torus.num_links == 0

    def test_neighbors_at_unit_torus_distance(self):
        torus = Torus3D((4, 4, 8))
        for u, v, _ in torus.edges():
            assert torus_distance(u, v, torus.shape) == 1

    def test_wraparound_edges_counted(self):
        torus = Torus3D((4, 4, 4))
        # Each dimension contributes one wrap edge per ring: 3 * 16 rings.
        assert len(torus.wraparound_edges()) == 3 * 16

    @given(st.tuples(st.integers(3, 5), st.integers(3, 5), st.integers(3, 5)))
    @settings(max_examples=10, deadline=None)
    def test_regularity_property(self, shape):
        assert is_regular(Torus3D(shape), 6)

    def test_connected(self):
        torus = Torus3D((4, 4, 8))
        assert len(bfs_distances(torus, (0, 0, 0))) == torus.num_nodes


class TestMesh:
    def test_corner_degrees(self):
        mesh = Mesh3D((4, 4, 4))
        histogram = degree_histogram(mesh)
        assert histogram[3] == 8  # corners
        assert mesh.degree((0, 0, 0)) == 3
        assert mesh.degree((1, 1, 1)) == 6

    def test_link_count(self):
        mesh = Mesh3D((4, 4, 4))
        assert mesh.num_links == 3 * 3 * 16  # 3 dims * 3 gaps * 16 lines

    def test_no_wraparound(self):
        mesh = Mesh3D((4, 1, 1))
        assert not mesh.has_edge((0, 0, 0), (3, 0, 0))

    def test_single_chip(self):
        mesh = Mesh3D((1, 1, 1))
        assert mesh.num_nodes == 1
        assert mesh.num_links == 0


class TestTwistable:
    def test_paper_shapes(self):
        assert is_twistable((4, 4, 8))
        assert is_twistable((4, 8, 8))
        assert is_twistable((8, 8, 16))
        assert is_twistable((8, 16, 16))
        assert not is_twistable((4, 4, 4))
        assert not is_twistable((8, 8, 8))
        assert not is_twistable((4, 4, 16))
        assert not is_twistable((2, 2, 4))  # n >= 4 required
        assert not is_twistable((4, 8, 16))

    def test_order_independent(self):
        assert is_twistable((8, 4, 4))
        assert is_twistable((8, 8, 4))


class TestTwistedTorus:
    def test_canonical_twist_kk2k(self):
        spec = canonical_twist((4, 4, 8))
        assert spec == {0: (0, 0, 4)}

    def test_canonical_twist_n2n2n(self):
        spec = canonical_twist((4, 8, 8))
        assert spec == {0: (0, 4, 4)}

    def test_untwistable_rejected(self):
        with pytest.raises(TopologyError):
            canonical_twist((4, 4, 4))

    def test_6_regular_and_connected(self):
        twisted = TwistedTorus3D((4, 4, 8))
        assert is_regular(twisted, 6)
        assert len(bfs_distances(twisted, (0, 0, 0))) == 128

    def test_same_link_count_as_regular(self):
        # Twisting only rewires wraparound links, never adds or removes.
        assert TwistedTorus3D((4, 4, 8)).num_links == Torus3D((4, 4, 8)).num_links

    def test_skew_cannot_target_own_dim(self):
        with pytest.raises(TopologyError):
            TwistedTorus3D((4, 4, 8), twists={0: (1, 0, 4)})

    def test_skew_cannot_target_another_twisted_dim(self):
        # Dim 2's wrap skews dim 0, which twists too: not a lattice quotient
        # (all-pairs diameter 5, where node 0 alone sees 4).
        with pytest.raises(TopologyError):
            TwistedTorus3D((4, 4, 4), twists={0: (0, 2, 0), 2: (2, 0, 0)})

    def test_twists_skewing_only_untwisted_dims_are_transitive(self):
        twisted = TwistedTorus3D((4, 4, 8),
                                 twists={0: (0, 0, 4), 1: (0, 0, 4)})
        assert twisted.twists == {0: (0, 0, 4), 1: (0, 0, 4)}
        profiles = {tuple(sorted(bfs_distances(twisted, node).values()))
                    for node in twisted.nodes}
        assert len(profiles) == 1

    def test_invalid_dim_rejected(self):
        with pytest.raises(TopologyError):
            TwistedTorus3D((4, 4, 8), twists={3: (0, 0, 4)})

    def test_zero_twist_equals_regular(self):
        twisted = TwistedTorus3D((4, 4, 8), twists={0: (0, 0, 0)})
        regular = Torus3D((4, 4, 8))
        twisted_edges = {frozenset(e[:2]) for e in twisted.edges()}
        regular_edges = {frozenset(e[:2]) for e in regular.edges()}
        assert twisted_edges == regular_edges

    def test_internal_edges_untouched(self):
        """The electrical (non-wrap) links match the regular torus."""
        twisted = TwistedTorus3D((4, 4, 8))
        regular = Torus3D((4, 4, 8))

        def internal(topology):
            edges = set()
            for u, v, _ in topology.edges():
                if sum(abs(a - b) for a, b in zip(u, v)) == 1:
                    edges.add(frozenset((u, v)))
            return edges

        assert internal(twisted) == internal(regular)

    def test_vertex_transitive_distances(self):
        """Every node sees the same sorted distance profile (Cayley graph)."""
        twisted = TwistedTorus3D((4, 4, 8))
        reference = sorted(bfs_distances(twisted, (0, 0, 0)).values())
        for probe in [(1, 2, 3), (3, 0, 7), (2, 3, 5)]:
            assert sorted(bfs_distances(twisted, probe).values()) == reference


class TestFigure5Example:
    def test_link_counts(self):
        example = figure5_example()
        # 4x2 grid: 3 horizontal x 2 rows + 4 vertical = 10 electrical links.
        assert len(example["electrical"]) == 10
        assert len(example["regular_optical"]) == 6
        assert len(example["twisted_optical"]) == 6

    def test_twist_shifts_by_half(self):
        example = figure5_example()
        twisted_y_wraps = [link for link in example["twisted_optical"]
                           if link[0][1] == 1 and link[1][1] == 0]
        for (x, _, _), (nx_, _, _) in twisted_y_wraps:
            assert nx_ == (x + 2) % 4

    def test_electrical_identical_between_variants(self):
        """The twist must not change any electrical link (paper Fig. 5)."""
        example = figure5_example()
        assert example["electrical"] == figure5_example()["electrical"]
