"""Shortest-path routing with equal-cost multipath (ECMP) splitting.

The ICI routes packets over shortest paths; when several shortest paths
exist the traffic splits evenly.  Under uniform all-to-all traffic the load
on a directed link is exactly its (unnormalized, ordered-pair) edge
betweenness, computed here with Brandes' algorithm.  Regular and twisted
tori are Cayley graphs (Camarero et al. [8]), so one source's dependencies,
summed per link class, give every load exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.coords import Coord

DirectedEdge = tuple[Coord, Coord]


def _shortest_path_dag(
    topology: Topology, source: Coord
) -> tuple[dict[Coord, int], dict[Coord, float], dict[Coord, list[Coord]]]:
    """BFS from `source` returning distances, path counts, predecessors."""
    dist: dict[Coord, int] = {source: 0}
    sigma: dict[Coord, float] = {source: 1.0}
    preds: dict[Coord, list[Coord]] = {source: []}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topology.unique_neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                sigma[neighbor] = 0.0
                preds[neighbor] = []
                frontier.append(neighbor)
            if dist[neighbor] == dist[node] + 1:
                sigma[neighbor] += sigma[node]
                preds[neighbor].append(node)
    return dist, sigma, preds


def ecmp_edge_loads(
    topology: Topology, sources: Iterable[Coord] | None = None
) -> dict[DirectedEdge, float]:
    """Directed link loads under uniform all-to-all at rate 1 per pair.

    Brandes' accumulation: for each source the dependency of the source on
    each DAG edge is summed; over all sources this equals, for every
    directed link, the number of (source, destination) unit flows crossing
    it after even ECMP splitting.

    On a vertex-transitive torus every directed link is a translate of one
    (dimension, direction) generator, and translation maps each source's
    DAG onto node 0's.  A link's load is then the summed dependency of
    node 0 on the links of its class, so one BFS serves the whole graph.
    A dimension of size 2 makes +1 and -1 the same coordinate step, so
    such shapes and meshes keep the all-sources scan, as does an explicit
    `sources` list.
    """
    shape = topology.shape
    by_class = (sources is None and topology.vertex_transitive
                and 2 not in shape)
    if sources is None:
        sources = topology.nodes[:1] if by_class else topology.nodes
    loads: dict[DirectedEdge, float] = {}
    for source in sources:
        dist, sigma, preds = _shortest_path_dag(topology, source)
        if len(dist) != topology.num_nodes:
            raise TopologyError("topology is disconnected")
        order = sorted(dist, key=dist.get, reverse=True)  # type: ignore[arg-type]
        delta = {node: 0.0 for node in dist}
        for node in order:
            if node == source:
                continue
            share = (1.0 + delta[node]) / sigma[node]
            for pred in preds[node]:
                contribution = sigma[pred] * share
                edge = (pred, node)
                loads[edge] = loads.get(edge, 0.0) + contribution
                delta[pred] += contribution
    if not by_class:
        return loads

    def link_class(u: Coord, v: Coord) -> tuple[int, bool]:
        d = topology.edge_dim(u, v)
        return d, v[d] == (u[d] + 1) % shape[d]

    class_loads: dict[tuple[int, bool], float] = {}
    for (u, v), load in loads.items():
        key = link_class(u, v)
        class_loads[key] = class_loads.get(key, 0.0) + load
    return {link: class_loads[link_class(*link)]
            for u, v, _ in topology.edges() for link in ((u, v), (v, u))}


def max_edge_load(topology: Topology,
                  loads: dict[DirectedEdge, float] | None = None) -> float:
    """Worst per-unit-capacity load over directed links.

    Parallel links between a node pair share the pair's ECMP load, so each
    pair's load is divided by its multiplicity before taking the maximum.
    """
    if loads is None:
        loads = ecmp_edge_loads(topology)
    worst = 0.0
    for (u, v), load in loads.items():
        mult = topology.multiplicity(u, v)
        if mult == 0:
            raise TopologyError(f"load on non-existent edge ({u}, {v})")
        worst = max(worst, load / mult)
    return worst


class RoutingTable:
    """Per-destination next-hop sets with lazy per-destination BFS.

    `next_hops(src, dst)` lists every neighbor of `src` lying on a shortest
    path to `dst` — the ECMP fan-out the hardware router would use.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._dist_to: dict[Coord, dict[Coord, int]] = {}

    def _distances_to(self, dst: Coord) -> dict[Coord, int]:
        if dst not in self._dist_to:
            dist, _, _ = _shortest_path_dag(self.topology, dst)
            self._dist_to[dst] = dist
        return self._dist_to[dst]

    def next_hops(self, src: Coord, dst: Coord) -> list[Coord]:
        """Neighbors of src that make progress toward dst."""
        if src == dst:
            return []
        dist = self._distances_to(dst)
        if src not in dist:
            raise TopologyError(f"{dst} unreachable from {src}")
        return [n for n in self.topology.unique_neighbors(src)
                if dist[n] == dist[src] - 1]

    def path(self, src: Coord, dst: Coord) -> list[Coord]:
        """A deterministic shortest path using the cached distance fields."""
        path = [src]
        while path[-1] != dst:
            path.append(min(self.next_hops(path[-1], dst)))
        return path
