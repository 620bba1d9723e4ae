"""Dimension-ordered routing (DOR) on regular tori.

The ICI router resolves each packet's route one dimension at a time
(x, then y, then z), taking the shorter way around each ring.  On a
regular torus DOR is minimal; on a twisted torus it is not defined (the
wrap changes coordinates), which is why the library routes with BFS/ECMP
(:mod:`repro.topology.routing`).  Only tests use this module: they pin
the router's behaviour and check DOR against the torus's links.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.coords import Coord, Shape, ring_distance
from repro.topology.torus import Torus3D


def ring_step(position: int, target: int, size: int) -> int:
    """Next position moving the short way around a ring.

    Ties (exactly halfway) break toward the + direction.

    >>> ring_step(0, 3, 4), ring_step(0, 1, 4)
    (3, 1)
    """
    if position == target:
        return position
    forward = (target - position) % size
    backward = (position - target) % size
    if forward <= backward:
        return (position + 1) % size
    return (position - 1) % size


def dor_path(shape: Shape, src: Coord, dst: Coord) -> list[Coord]:
    """The dimension-ordered route from src to dst (inclusive)."""
    path = [src]
    current = list(src)
    for dim in range(3):
        size = shape[dim]
        while current[dim] != dst[dim]:
            current[dim] = ring_step(current[dim], dst[dim], size)
            path.append((current[0], current[1], current[2]))
    return path


def dor_path_length(shape: Shape, src: Coord, dst: Coord) -> int:
    """Hops of the DOR route — the torus L1 distance."""
    return sum(ring_distance(src[d], dst[d], shape[d]) for d in range(3))


def validate_dor_on(torus: Torus3D, src: Coord, dst: Coord) -> list[Coord]:
    """DOR route checked against the torus's actual links."""
    if torus.kind != "torus":
        raise TopologyError("DOR applies to regular tori only")
    path = dor_path(torus.shape, src, dst)
    for u, v in zip(path, path[1:]):
        if not torus.has_edge(u, v):
            raise TopologyError(f"DOR step ({u}, {v}) is not a torus link")
    return path
