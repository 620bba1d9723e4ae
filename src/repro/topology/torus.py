"""Regular 3D torus, the default TPU v4 slice topology.

Each dimension of size >= 3 forms a ring (wraparound provided by the OCS).
A dimension of size 2 contributes a single link between the two planes (no
doubled wraparound cable), and a dimension of size 1 contributes nothing.
TPU v3's 2D torus is the special case ``(a, b, 1)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.topology.base import Topology
from repro.topology.coords import Coord, iter_coords


class Torus3D(Topology):
    """A rectangular (possibly degenerate) 3D torus."""

    kind = "torus"
    vertex_transitive = True

    def _edges(self) -> Iterator[tuple[Coord, Coord, int]]:
        for node in iter_coords(self.shape):
            for dim in range(3):
                size = self.shape[dim]
                if size == 1:
                    continue
                succ = list(node)
                succ[dim] = (node[dim] + 1) % size
                successor = (succ[0], succ[1], succ[2])
                # A ring of two nodes would emit the same undirected edge
                # twice (0->1 and 1->0); emit it once, from the even side.
                if size == 2 and node[dim] == 1:
                    continue
                yield node, successor, dim
