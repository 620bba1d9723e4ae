"""Tests for bisection, diameter, average distance, and routing."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import (Mesh3D, Torus3D, TwistedTorus3D,
                            average_distance, bisection_bandwidth,
                            bisection_links, diameter,
                            theoretical_bisection_scaling)
from repro.topology import routing
from repro.topology.properties import _cut_crossings, bfs_distances
from repro.topology.routing import (RoutingTable, ecmp_edge_loads,
                                    max_edge_load)
from repro.topology.twisted import _twist_candidates


class TestBisection:
    def test_cube_formula(self):
        # k^3 torus bisects through 2k^2 links.
        for k in (3, 4, 5):
            assert bisection_links(Torus3D((k, k, k))) == 2 * k * k

    def test_2d_torus_formula(self):
        assert bisection_links(Torus3D((8, 8, 1))) == 2 * 8

    def test_rectangular_cut_through_long_dim(self):
        # 4x4x8: cutting the 16 z-rings twice each = 32 links.
        assert bisection_links(Torus3D((4, 4, 8))) == 32

    def test_twist_doubles_bisection(self):
        regular = bisection_links(Torus3D((4, 4, 8)))
        twisted = bisection_links(TwistedTorus3D((4, 4, 8)))
        assert twisted == 2 * regular

    def test_twist_doubles_bisection_n2n2n(self):
        regular = bisection_links(Torus3D((4, 8, 8)))
        twisted = bisection_links(TwistedTorus3D((4, 8, 8)))
        assert twisted == 2 * regular

    def test_mesh_half_of_torus(self):
        # A mesh cut crosses each line once; the torus crosses twice.
        assert bisection_links(Mesh3D((4, 4, 8))) == 16
        assert bisection_links(Torus3D((4, 4, 8))) == 32

    def test_bandwidth_scales_linearly(self):
        torus = Torus3D((4, 4, 4))
        assert bisection_bandwidth(torus, 50e9) == bisection_links(torus) * 50e9

    def test_single_node_raises(self):
        with pytest.raises(TopologyError):
            bisection_links(Torus3D((1, 1, 1)))

    def test_scaling_law(self):
        assert theoretical_bisection_scaling(64, 3) == pytest.approx(2 * 16)
        assert theoretical_bisection_scaling(64, 2) == pytest.approx(16)
        # 3D pulls ahead of 2D as N grows (paper Section 3.6).
        for n in (64, 256, 1024, 4096):
            assert (theoretical_bisection_scaling(n, 3)
                    > theoretical_bisection_scaling(n, 2))
        with pytest.raises(TopologyError):
            theoretical_bisection_scaling(64, 4)


class TestDistances:
    def test_cube_diameter(self):
        # k^3 torus diameter is 3*floor(k/2).
        assert diameter(Torus3D((4, 4, 4))) == 6
        assert diameter(Torus3D((8, 8, 8))) == 12

    def test_mesh_diameter(self):
        assert diameter(Mesh3D((4, 4, 4))) == 9

    def test_twist_reduces_diameter(self):
        assert diameter(TwistedTorus3D((4, 4, 8))) < diameter(Torus3D((4, 4, 8)))

    def test_twist_reduces_average_distance(self):
        assert (average_distance(TwistedTorus3D((4, 4, 8)))
                < average_distance(Torus3D((4, 4, 8))))

    def test_average_distance_ring(self):
        # Ring of 4: distances 1,1,2 from each node -> mean 4/3.
        assert average_distance(Torus3D((4, 1, 1))) == pytest.approx(4 / 3)

    def test_single_node(self):
        assert average_distance(Torus3D((1, 1, 1))) == 0.0


class TestRouting:
    def test_shortest_path_endpoints(self):
        torus = Torus3D((4, 4, 4))
        path = RoutingTable(torus).path((0, 0, 0), (2, 2, 2))
        assert path[0] == (0, 0, 0)
        assert path[-1] == (2, 2, 2)
        assert len(path) - 1 == 6

    def test_path_steps_are_links(self):
        torus = TwistedTorus3D((4, 4, 8))
        path = RoutingTable(torus).path((0, 0, 0), (3, 3, 5))
        for u, v in zip(path, path[1:]):
            assert torus.has_edge(u, v)

    def test_path_uses_wraparound(self):
        torus = Torus3D((8, 1, 1))
        assert bfs_distances(torus, (0, 0, 0))[(7, 0, 0)] == 1

    def test_ecmp_loads_symmetric_on_torus(self):
        torus = Torus3D((4, 4, 4))
        loads = ecmp_edge_loads(torus)
        values = set(round(v, 6) for v in loads.values())
        # Vertex+edge transitivity: every directed link carries equal load.
        assert len(values) == 1

    def test_ecmp_load_conservation(self):
        """Total link load equals total traffic 'work' (pairs x distance)."""
        torus = Torus3D((4, 4, 2))
        loads = ecmp_edge_loads(torus)
        total_work = 0.0
        for src in torus.nodes:
            total_work += sum(bfs_distances(torus, src).values())
        assert sum(loads.values()) == pytest.approx(total_work)

    def test_max_edge_load_divides_multiplicity(self):
        torus = Torus3D((4, 1, 1))
        loads = ecmp_edge_loads(torus)
        assert max_edge_load(torus, loads) == max(loads.values())

    def test_routing_table_next_hops(self):
        torus = Torus3D((4, 4, 4))
        table = RoutingTable(torus)
        hops = table.next_hops((0, 0, 0), (2, 2, 0))
        # Both +x and +y neighbors (and wraps) make progress; all at dist 3.
        assert (1, 0, 0) in hops and (0, 1, 0) in hops
        assert table.next_hops((1, 1, 1), (1, 1, 1)) == []

    def test_routing_table_path_valid(self):
        torus = TwistedTorus3D((4, 4, 8))
        table = RoutingTable(torus)
        path = table.path((0, 0, 0), (2, 1, 6))
        assert path[0] == (0, 0, 0) and path[-1] == (2, 1, 6)
        assert len(path) - 1 == bfs_distances(torus, (0, 0, 0))[(2, 1, 6)]

    @given(st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)))
    @settings(max_examples=8, deadline=None)
    def test_paths_never_longer_than_diameter(self, shape):
        torus = Torus3D(shape)
        worst = diameter(torus)
        table = RoutingTable(torus)
        src = torus.nodes[0]
        for dst in torus.nodes[1:]:
            assert len(table.path(src, dst)) - 1 <= worst


def _shapes(sides):
    side = st.sampled_from(sides)
    return st.tuples(side, side, side)


def _every_offset_bisection(topology):
    return min(_cut_crossings(topology, dim, offset)
               for dim in range(3) if topology.shape[dim] >= 2
               for offset in range(topology.shape[dim]))


def _assert_one_source_matches_scan(topology):
    """Class-sum loads and the offset-0 cut equal the all-sources scans."""
    loads = ecmp_edge_loads(topology)
    oracle = ecmp_edge_loads(topology, sources=topology.nodes)
    assert loads.keys() == oracle.keys()
    for link, load in oracle.items():
        assert loads[link] == pytest.approx(load, rel=1e-12), link
    if max(topology.shape) > 1:
        assert bisection_links(topology) == _every_offset_bisection(topology)


class TestOneSourceOracle:
    """Tori take loads and cuts from one source; the full scans agree."""

    @given(_shapes((1, 3, 4, 5)))
    @settings(max_examples=25, deadline=None)
    def test_regular_tori(self, shape):
        _assert_one_source_matches_scan(Torus3D(shape))

    @given(_shapes((1, 3, 4, 5)), st.data())
    @settings(max_examples=25, deadline=None)
    def test_single_dimension_twists(self, shape, data):
        candidates = _twist_candidates(shape)
        assume(candidates)
        spec = data.draw(st.sampled_from(candidates))
        _assert_one_source_matches_scan(TwistedTorus3D(shape, twists=spec))

    @pytest.mark.parametrize("shape", [(4, 4, 8), (4, 8, 8)])
    def test_canonical_twists(self, shape):
        _assert_one_source_matches_scan(TwistedTorus3D(shape))

    @given(_shapes((1, 2, 3, 4)), st.data())
    @settings(max_examples=25, deadline=None)
    def test_offset_zero_cut_with_size_two_dims(self, shape, data):
        assume(2 in shape)
        topologies = [Torus3D(shape)]
        candidates = _twist_candidates(shape)
        if candidates:
            spec = data.draw(st.sampled_from(candidates))
            topologies.append(TwistedTorus3D(shape, twists=spec))
        for topology in topologies:
            assert bisection_links(topology) == \
                _every_offset_bisection(topology)

    @pytest.mark.parametrize("topology, sources", [
        (Torus3D((3, 4, 5)), 1),
        (TwistedTorus3D((4, 4, 8)), 1),
        (Mesh3D((3, 4, 5)), 60),
        (Torus3D((2, 3, 4)), 24),
        (TwistedTorus3D((2, 4, 4), twists={0: (0, 2, 0)}), 32),
    ], ids=["torus", "twisted", "mesh", "torus-size2", "twisted-size2"])
    def test_bfs_count(self, topology, sources, monkeypatch):
        scanned = []
        bfs = routing._shortest_path_dag

        def counted(graph, source):
            scanned.append(source)
            return bfs(graph, source)

        monkeypatch.setattr(routing, "_shortest_path_dag", counted)
        ecmp_edge_loads(topology)
        assert len(scanned) == sources


class TestThroughputShape:
    """The headline Figure 6 behaviour, asserted at the graph level."""

    def _per_node_throughput(self, topology):
        n = topology.num_nodes
        return (n - 1) / max_edge_load(topology)

    def test_twisted_beats_regular_448(self):
        ratio = (self._per_node_throughput(TwistedTorus3D((4, 4, 8)))
                 / self._per_node_throughput(Torus3D((4, 4, 8))))
        assert 1.3 <= ratio <= 1.8  # paper: 1.63x

    def test_twisted_beats_regular_488(self):
        ratio = (self._per_node_throughput(TwistedTorus3D((4, 8, 8)))
                 / self._per_node_throughput(Torus3D((4, 8, 8))))
        assert 1.15 <= ratio <= 1.6  # paper: 1.31x

    def test_gain_larger_for_kk2k_than_n2n2n(self):
        gain_448 = (self._per_node_throughput(TwistedTorus3D((4, 4, 8)))
                    / self._per_node_throughput(Torus3D((4, 4, 8))))
        gain_488 = (self._per_node_throughput(TwistedTorus3D((4, 8, 8)))
                    / self._per_node_throughput(Torus3D((4, 8, 8))))
        assert gain_448 > gain_488
