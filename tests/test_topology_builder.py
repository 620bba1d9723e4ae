"""Tests for build_topology's physical rules."""

import pytest

from repro.errors import TopologyError
from repro.topology import build_topology
from repro.topology.builder import (BLOCK_SIDE, is_block_multiple,
                                    supports_wraparound)


class TestPhysicalRules:
    def test_block_constants(self):
        assert BLOCK_SIDE**3 == 64

    def test_block_multiple(self):
        assert is_block_multiple((4, 4, 4))
        assert is_block_multiple((4, 8, 12))
        assert not is_block_multiple((2, 4, 4))
        assert not is_block_multiple((4, 4, 6))

    def test_sub_block_gets_mesh(self):
        for shape in [(1, 1, 1), (2, 2, 2), (2, 4, 4), (1, 2, 2)]:
            assert build_topology(shape).kind == "mesh"

    def test_block_multiple_gets_torus(self):
        for shape in [(4, 4, 4), (4, 4, 8), (8, 8, 8), (4, 4, 12)]:
            assert build_topology(shape).kind == "torus"

    def test_twisted_on_request_only(self):
        assert build_topology((4, 4, 8)).kind == "torus"
        assert build_topology((4, 4, 8), twisted=True).kind == "twisted-torus"

    def test_untwistable_shape_rejected(self):
        with pytest.raises(TopologyError):
            build_topology((8, 8, 8), twisted=True)

    def test_sub_block_twist_rejected(self):
        with pytest.raises(TopologyError):
            build_topology((2, 2, 4), twisted=True)

    def test_wrap_override(self):
        assert build_topology((4, 4, 4), wrap=False).kind == "mesh"
        assert build_topology((2, 2, 2), wrap=True).kind == "torus"

    def test_supports_wraparound_matches_rule(self):
        assert supports_wraparound((4, 4, 4))
        assert not supports_wraparound((2, 2, 2))

    def test_example_slice_192(self):
        # Paper Section 2.5: a 192-chip slice with geometry 4x4x12.
        topo = build_topology((4, 4, 12))
        assert topo.kind == "torus"
        assert topo.num_nodes == 192
