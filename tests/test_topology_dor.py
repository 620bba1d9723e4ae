"""Tests for dimension-ordered routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import Torus3D, TwistedTorus3D
from repro.topology.dor import (dor_path, dor_path_length, ring_step,
                                validate_dor_on)
from repro.topology.properties import bfs_distances

shapes = st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))


def coords_in(shape):
    return st.tuples(*(st.integers(0, d - 1) for d in shape))


class TestRingStep:
    def test_short_way_around(self):
        assert ring_step(0, 3, 4) == 3   # backward wrap
        assert ring_step(0, 1, 4) == 1   # forward
        assert ring_step(1, 3, 8) == 2

    def test_tie_breaks_forward(self):
        assert ring_step(0, 2, 4) == 1

    def test_fixed_point(self):
        assert ring_step(2, 2, 4) == 2


class TestDORPath:
    def test_simple_route(self):
        path = dor_path((4, 4, 4), (0, 0, 0), (1, 2, 3))
        assert path[0] == (0, 0, 0) and path[-1] == (1, 2, 3)
        # x resolves first, then y, then z.
        assert path[1] == (1, 0, 0)

    def test_wraparound_used(self):
        path = dor_path((4, 4, 4), (0, 0, 0), (3, 0, 0))
        assert len(path) == 2  # one hop the short way around

    def test_length_is_l1_torus_distance(self):
        assert dor_path_length((4, 4, 8), (0, 0, 0), (3, 3, 5)) == 1 + 1 + 3

    @given(shapes.flatmap(lambda s: st.tuples(st.just(s), coords_in(s),
                                              coords_in(s))))
    @settings(max_examples=40, deadline=None)
    def test_path_length_matches_formula(self, args):
        shape, src, dst = args
        path = dor_path(shape, src, dst)
        assert len(path) - 1 == dor_path_length(shape, src, dst)

    @given(st.tuples(st.integers(3, 4), st.integers(3, 4), st.integers(3, 4))
           .flatmap(lambda s: st.tuples(st.just(s), coords_in(s),
                                        coords_in(s))))
    @settings(max_examples=15, deadline=None)
    def test_dor_is_minimal_on_regular_torus(self, args):
        shape, src, dst = args
        torus = Torus3D(shape)
        dor_hops = len(validate_dor_on(torus, src, dst)) - 1
        assert dor_hops == bfs_distances(torus, src)[dst]

    def test_every_step_is_a_link(self):
        torus = Torus3D((4, 4, 8))
        path = validate_dor_on(torus, (0, 0, 0), (3, 2, 7))
        for u, v in zip(path, path[1:]):
            assert torus.has_edge(u, v)

    def test_twisted_rejected(self):
        twisted = TwistedTorus3D((4, 4, 8))
        with pytest.raises(TopologyError):
            validate_dor_on(twisted, (0, 0, 0), (1, 1, 1))

    def test_twisted_can_beat_dor_distance(self):
        """The twist's entire point: shortcuts below the L1 metric."""
        twisted = TwistedTorus3D((4, 4, 8))
        shorter = 0
        for dst in [(0, 0, 4), (1, 0, 4), (0, 1, 4)]:
            if (bfs_distances(twisted, (0, 0, 0))[dst]
                    < dor_path_length((4, 4, 8), (0, 0, 0), dst)):
                shorter += 1
        assert shorter >= 1
