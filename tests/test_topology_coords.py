"""Tests for coordinate arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.topology import coords as C

shapes = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))


def coords_in(shape):
    return st.tuples(*(st.integers(0, d - 1) for d in shape))


class TestValidateShape:
    def test_accepts_lists(self):
        assert C.validate_shape([4, 4, 8]) == (4, 4, 8)

    def test_rejects_wrong_rank(self):
        with pytest.raises(TopologyError):
            C.validate_shape((4, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            C.validate_shape((4, 0, 4))


class TestIndexing:
    @given(shapes.flatmap(lambda s: st.tuples(st.just(s), coords_in(s))))
    def test_roundtrip(self, shape_and_coord):
        shape, coord = shape_and_coord
        assert C.index_to_coord(C.coord_to_index(coord, shape), shape) == coord

    def test_row_major_order(self):
        shape = (2, 3, 4)
        listed = list(C.iter_coords(shape))
        assert listed[0] == (0, 0, 0)
        assert listed[1] == (0, 0, 1)
        assert [C.coord_to_index(c, shape) for c in listed] == list(range(24))

    def test_out_of_range_coord(self):
        with pytest.raises(TopologyError):
            C.coord_to_index((2, 0, 0), (2, 2, 2))

    def test_out_of_range_index(self):
        with pytest.raises(TopologyError):
            C.index_to_coord(8, (2, 2, 2))


class TestDistances:
    def test_ring_distance_wraps(self):
        assert C.ring_distance(0, 3, 4) == 1
        assert C.ring_distance(1, 3, 8) == 2
        assert C.ring_distance(0, 4, 8) == 4

    @given(st.integers(2, 32), st.integers(0, 31), st.integers(0, 31))
    def test_ring_distance_symmetric(self, size, a, b):
        a %= size
        b %= size
        assert C.ring_distance(a, b, size) == C.ring_distance(b, a, size)
        assert 0 <= C.ring_distance(a, b, size) <= size // 2

    def test_num_nodes(self):
        assert C.num_nodes((4, 4, 8)) == 128
