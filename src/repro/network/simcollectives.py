"""Collectives executed on the flow-level simulator.

The closed-form models in :mod:`repro.network.collectives` assume perfect
bandwidth sharing; here the same schedules run as actual dependent flows
on :class:`~repro.network.flowsim.FlowSim`, so congestion, stragglers and
skewed chunk sizes show up.  Tests cross-validate the two within a small
tolerance — the same discipline the paper's event-driven simulator serves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.network.flowsim import FlowSim, route_links, topology_capacities
from repro.topology.base import Topology
from repro.topology.coords import Coord
from repro.topology.routing import RoutingTable


@dataclass(frozen=True)
class SimulatedCollective:
    """Outcome of one simulated collective."""

    name: str
    num_nodes: int
    num_bytes: float
    seconds: float
    flows: int


def _ring_order(topology: Topology, dim: int) -> list[list[Coord]]:
    """All rings of the torus along one dimension (coordinate order)."""
    rings: dict[tuple, list[Coord]] = {}
    for node in topology.nodes:
        key = tuple(c for i, c in enumerate(node) if i != dim)
        rings.setdefault(key, []).append(node)
    ordered = []
    for members in rings.values():
        ordered.append(sorted(members, key=lambda n: n[dim]))
    return ordered


def simulate_ring_allreduce(topology: Topology, num_bytes: float,
                            link_bandwidth: float, *,
                            dim: int = None) -> SimulatedCollective:
    """Run a bidirectional ring all-reduce along one torus dimension.

    Every ring of the chosen dimension runs concurrently (as the real
    schedule does); each of the 2*(n-1) steps sends size/(2n) chunks both
    ways around the ring, and a step begins only when the previous one
    finished everywhere (bulk-synchronous, the conservative variant).
    """
    if dim is None:
        dim = max(range(3), key=lambda d: topology.shape[d])
    if dim not in range(3):
        raise SimulationError(f"dim must be 0, 1 or 2, got {dim}")
    ring_len = topology.shape[dim]
    if ring_len < 2:
        raise SimulationError(f"dimension {dim} has no ring")
    rings = _ring_order(topology, dim)
    sim = FlowSim(topology_capacities(topology, link_bandwidth))
    chunk = num_bytes / (2 * ring_len)
    total_steps = 2 * (ring_len - 1)
    flows = 0

    def launch_step(step: int) -> None:
        nonlocal flows
        if step >= total_steps:
            return
        pending = 2 * len(rings) if ring_len > 2 else len(rings)
        done = {"count": 0}

        def on_done(_flow) -> None:
            done["count"] += 1
            if done["count"] == pending:
                launch_step(step + 1)

        for ring in rings:
            n = len(ring)
            for direction in (+1, -1):
                if ring_len == 2 and direction == -1:
                    continue  # a 2-ring has one link; send one way only
                for index, node in enumerate(ring):
                    peer = ring[(index + direction) % n]
                    callback = on_done if index == 0 else None
                    sim.add_flow(route_links([node, peer]), chunk,
                                 on_complete=callback)
                    flows += 1

    launch_step(0)
    seconds = sim.run()
    return SimulatedCollective(name="ring-allreduce",
                               num_nodes=topology.num_nodes,
                               num_bytes=num_bytes, seconds=seconds,
                               flows=flows)


def simulate_alltoall(topology: Topology, per_pair_bytes: float,
                      link_bandwidth: float,
                      max_nodes: int = 128) -> SimulatedCollective:
    """Run a uniform all-to-all as simultaneous shortest-path flows.

    One flow per ordered pair, single deterministic shortest path each
    (no ECMP splitting), so the result lower-bounds the analytic
    ECMP throughput — useful as a pessimistic cross-check.
    """
    n = topology.num_nodes
    if n > max_nodes:
        raise SimulationError(
            f"{n} nodes exceeds the all-to-all simulation cap {max_nodes}")
    table = RoutingTable(topology)
    sim = FlowSim(topology_capacities(topology, link_bandwidth))
    flows = 0
    for src in topology.nodes:
        for dst in topology.nodes:
            if src == dst:
                continue
            sim.add_flow(route_links(table.path(src, dst)), per_pair_bytes)
            flows += 1
    seconds = sim.run()
    return SimulatedCollective(name="alltoall", num_nodes=n,
                               num_bytes=per_pair_bytes * (n - 1),
                               seconds=seconds, flows=flows)
