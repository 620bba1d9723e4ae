"""Graph-theoretic properties of interconnect topologies.

Bisection bandwidth drives the paper's embedding (all-to-all) analysis:
2D tori scale as N^(1/2), 3D tori as N^(2/3) (Section 3.6, Figure 8).
"""

from __future__ import annotations

from collections import deque

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.coords import Coord


def bfs_distances(topology: Topology, source: Coord) -> dict[Coord, int]:
    """Hop distance from `source` to every reachable node."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topology.unique_neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                frontier.append(neighbor)
    return dist


def _sources_for_scan(topology: Topology) -> list[Coord]:
    if topology.vertex_transitive:
        return [topology.nodes[0]]
    return topology.nodes


def diameter(topology: Topology) -> int:
    """Longest shortest path, exploiting vertex transitivity when declared."""
    worst = 0
    for source in _sources_for_scan(topology):
        dist = bfs_distances(topology, source)
        if len(dist) != topology.num_nodes:
            raise TopologyError("topology is disconnected")
        worst = max(worst, max(dist.values()))
    return worst


def average_distance(topology: Topology) -> float:
    """Mean hop distance over ordered node pairs (excluding self pairs)."""
    if topology.num_nodes == 1:
        return 0.0
    total = 0
    pairs = 0
    for source in _sources_for_scan(topology):
        dist = bfs_distances(topology, source)
        if len(dist) != topology.num_nodes:
            raise TopologyError("topology is disconnected")
        # detlint: ignore[D005] integer hop counts; order-free sum
        total += sum(dist.values())
        pairs += len(dist) - 1
    return total / pairs


def _cut_crossings(topology: Topology, dim: int, offset: int) -> int:
    """Links crossing the plane splitting `dim` at `offset` into halves."""
    size = topology.shape[dim]
    half = size // 2

    def side(node: Coord) -> bool:
        return ((node[dim] - offset) % size) < half

    crossings = 0
    for u, v, mult in topology.edges():
        if side(u) != side(v):
            crossings += mult
    return crossings


def bisection_links(topology: Topology) -> int:
    """Minimum link count crossing an axis-aligned near-even bisection.

    For tori and twisted tori the minimal bisection is axis-aligned (the
    classic cut through the longest dimension); we scan every dimension of
    size >= 2 and every rotation offset and take the smallest cut.  Exact
    minimum bisection is NP-hard in general; for these lattice graphs the
    axis cuts are the known optima (Dally & Towles [12]).  On a
    vertex-transitive torus one step along a dimension is an automorphism
    that rotates that dimension's cut by one offset, so offset 0 stands
    for them all.
    """
    best: int | None = None
    for dim in range(3):
        if topology.shape[dim] < 2:
            continue
        offsets = 1 if topology.vertex_transitive else topology.shape[dim]
        for offset in range(offsets):
            crossings = _cut_crossings(topology, dim, offset)
            if best is None or crossings < best:
                best = crossings
    if best is None:
        raise TopologyError(
            f"shape {topology.shape} has no dimension to bisect")
    return best


def bisection_bandwidth(topology: Topology, link_bandwidth: float) -> float:
    """One-direction bandwidth across the worst near-even bisection.

    Each undirected link carries `link_bandwidth` in each direction, so the
    per-direction bisection bandwidth is simply crossing links times link
    bandwidth.
    """
    return bisection_links(topology) * link_bandwidth


def theoretical_bisection_scaling(num_chips: int, torus_dims: int) -> float:
    """Bisection link count of a balanced torus of `num_chips` nodes.

    A square 2D torus of side k (k^2 chips) bisects through 2k links; a
    cubic 3D torus of side k (k^3 chips) bisects through 2k^2 links — i.e.
    2*N^(1/2) vs 2*N^(2/3) (paper Section 3.6).
    """
    if torus_dims == 2:
        return 2.0 * num_chips ** 0.5
    if torus_dims == 3:
        return 2.0 * num_chips ** (2.0 / 3.0)
    raise TopologyError(f"torus_dims must be 2 or 3, got {torus_dims}")
