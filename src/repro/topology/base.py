"""Base class shared by all interconnect topologies.

A topology is an undirected (multi)graph over 3D grid coordinates.  Parallel
links are tracked as an integer multiplicity per node pair; bandwidth-aware
code multiplies multiplicity by per-link bandwidth.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TopologyError
from repro.topology.coords import (
    Coord,
    Shape,
    coord_to_index,
    index_to_coord,
    iter_coords,
    num_nodes,
    validate_shape,
)


class Topology:
    """An undirected multigraph of chips identified by (x, y, z) coordinates.

    Subclasses implement :meth:`_edges`, yielding undirected node pairs
    (possibly repeated, for parallel links).  Everything else — adjacency,
    degrees, linear indexing — is provided here.

    Attributes:
        shape: grid extent per dimension.
        vertex_transitive: True when the graph looks identical from every
            node (regular and twisted tori).  Property computations exploit
            this to run single-source instead of all-pairs scans.
    """

    kind = "topology"
    vertex_transitive = False

    def __init__(self, shape: Iterable[int]) -> None:
        self.shape: Shape = validate_shape(tuple(shape))
        self._nodes: list[Coord] = list(iter_coords(self.shape))
        self._multiplicity: dict[tuple[Coord, Coord], int] = {}
        self._edge_dim: dict[tuple[Coord, Coord], int] = {}
        self._adj: dict[Coord, list[Coord]] = {n: [] for n in self._nodes}
        for u, v, dim in self._edges():
            self._add_edge(u, v, dim)

    # -- construction --------------------------------------------------------

    def _edges(self) -> Iterator[tuple[Coord, Coord, int]]:
        """Yield undirected (u, v, dim) edges; implemented by subclasses.

        `dim` records which torus/mesh dimension the link travels (0..2);
        the OCS fabric needs it to pick the right switch group.
        """
        raise NotImplementedError

    def _add_edge(self, u: Coord, v: Coord, dim: int) -> None:
        if u == v:
            return  # self-loops carry no traffic; drop silently (dim size 1)
        if u not in self._adj or v not in self._adj:
            raise TopologyError(f"edge ({u}, {v}) references unknown node")
        key = (u, v) if u <= v else (v, u)
        self._multiplicity[key] = self._multiplicity.get(key, 0) + 1
        self._edge_dim[key] = dim
        self._adj[u].append(v)
        self._adj[v].append(u)

    # -- node API -------------------------------------------------------------

    @property
    def nodes(self) -> list[Coord]:
        """All coordinates, row-major order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        """Total chip count."""
        return num_nodes(self.shape)

    def index(self, coord: Coord) -> int:
        """Linear index of a coordinate."""
        return coord_to_index(coord, self.shape)

    def coord(self, index: int) -> Coord:
        """Coordinate for a linear index."""
        return index_to_coord(index, self.shape)

    # -- edge API -------------------------------------------------------------

    def unique_neighbors(self, node: Coord) -> list[Coord]:
        """Neighbors with parallel links collapsed, insertion-ordered."""
        seen: dict[Coord, None] = {}
        for n in self._adj[node]:
            seen.setdefault(n)
        return list(seen)

    def degree(self, node: Coord) -> int:
        """Link count at a node (parallel links counted individually)."""
        return len(self._adj[node])

    def edges(self) -> Iterator[tuple[Coord, Coord, int]]:
        """Yield (u, v, multiplicity) for each undirected node pair."""
        for (u, v), mult in self._multiplicity.items():
            yield u, v, mult

    def multiplicity(self, u: Coord, v: Coord) -> int:
        """Number of parallel links between two nodes (0 if none)."""
        key = (u, v) if u <= v else (v, u)
        return self._multiplicity.get(key, 0)

    def edge_dim(self, u: Coord, v: Coord) -> int:
        """The torus dimension a link travels along.

        Raises TopologyError when no link joins u and v.
        """
        key = (u, v) if u <= v else (v, u)
        if key not in self._edge_dim:
            raise TopologyError(f"no link between {u} and {v}")
        return self._edge_dim[key]

    def has_edge(self, u: Coord, v: Coord) -> bool:
        """True when at least one link joins u and v."""
        return self.multiplicity(u, v) > 0

    @property
    def num_links(self) -> int:
        """Total undirected link count including parallel links."""
        # detlint: ignore[D005] integer multiplicities; order-free sum
        return sum(self._multiplicity.values())

    # -- summary --------------------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable summary."""
        a, b, c = self.shape
        return (f"{self.kind} {a}x{b}x{c}: {self.num_nodes} nodes, "
                f"{self.num_links} links")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shape={self.shape}>"
