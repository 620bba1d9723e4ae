"""Construct the right topology for a slice shape.

Encodes the machine's physical rules (paper Sections 2.2, 2.5, 2.8, 2.9):

* slices smaller than a 4x4x4 block only get the electrical mesh;
* slices made of 4x4x4 blocks (every dimension a multiple of 4) get OCS
  wraparound and form regular 3D tori;
* shapes of the form n*n*2n / n*2n*2n (n >= 4) may additionally be twisted.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.coords import validate_shape
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D
from repro.topology.twisted import TwistedTorus3D, is_twistable

BLOCK_SIDE = 4


def is_block_multiple(shape: tuple[int, int, int]) -> bool:
    """True when the shape tiles exactly into 4x4x4 blocks."""
    return all(d % BLOCK_SIDE == 0 for d in shape)


def supports_wraparound(shape: tuple[int, int, int]) -> bool:
    """Wraparound (torus) links exist only for block-multiple slices."""
    return is_block_multiple(shape)


def build_topology(shape: tuple[int, int, int], *,
                   twisted: bool | None = None,
                   wrap: bool | None = None) -> Topology:
    """Build the topology the machine would provide for `shape`.

    Args:
        shape: chips per dimension.
        twisted: request the twisted torus.  None means "regular" (the user
            choice in Table 2 — twistable shapes are *not* twisted unless
            asked).  True raises for untwistable shapes.
        wrap: override wraparound availability (None = physical rule).

    >>> build_topology((2, 2, 4)).kind
    'mesh'
    >>> build_topology((4, 4, 8)).kind
    'torus'
    >>> build_topology((4, 4, 8), twisted=True).kind
    'twisted-torus'
    """
    dims = validate_shape(shape)
    wraps = supports_wraparound(dims) if wrap is None else wrap
    if twisted:
        if not wraps:
            raise TopologyError(
                f"shape {dims} cannot twist: no OCS wraparound links")
        if not is_twistable(dims):
            raise TopologyError(
                f"shape {dims} is not twistable (n*n*2n or n*2n*2n, n>=4)")
        return TwistedTorus3D(dims)
    if wraps:
        return Torus3D(dims)
    return Mesh3D(dims)
