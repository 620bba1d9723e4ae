"""Closed-form all-to-all throughput bounds (Figure 6's methodology).

Under uniform all-to-all with ECMP shortest-path routing the steady-state
per-node throughput is set by the most-loaded directed link:

    per_pair_rate = min over links of capacity(link) / load(link)
    per_node      = per_pair_rate * (N - 1)

where load is the (ordered-pair) edge betweenness.  We also report two
upper bounds: the bisection bound (the paper's Section 3.6 argument) and
the injection/capacity bound ("theoretical delta from the ideal peak" in
Figure 6's stacked bars).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.base import Topology
from repro.topology.properties import average_distance, bisection_bandwidth
from repro.topology.routing import ecmp_edge_loads, max_edge_load


@dataclass(frozen=True)
class AllToAllAnalysis:
    """All-to-all throughput figures for one topology."""

    num_nodes: int
    link_bandwidth: float
    per_node_throughput: float     # achieved under ECMP (bytes/s)
    bisection_bound: float         # bisection-limited ceiling (bytes/s)
    capacity_bound: float          # total-link-capacity ceiling (bytes/s)
    injection_peak: float          # per-node NIC/port limit (bytes/s)

    @property
    def efficiency_vs_ideal(self) -> float:
        """Measured / ideal-peak, the complement of Figure 6's delta bar."""
        return self.per_node_throughput / self.ideal_peak

    @property
    def ideal_peak(self) -> float:
        """The tightest of the theoretical ceilings."""
        return min(self.bisection_bound, self.capacity_bound,
                   self.injection_peak)


def alltoall_analysis(topology: Topology,
                      link_bandwidth: float) -> AllToAllAnalysis:
    """Analyze uniform all-to-all on `topology` (see module docstring)."""
    n = topology.num_nodes
    if n < 2:
        raise ValueError("all-to-all needs at least two nodes")
    loads = ecmp_edge_loads(topology)
    worst = max_edge_load(topology, loads)
    per_pair = link_bandwidth / worst
    per_node = per_pair * (n - 1)

    # Bisection bound: each node sends (n/2)/(n-1) of its traffic across
    # the cut and the cut carries n/2 senders' worth in each direction:
    #   per_node * (n/2)^2 / (n-1) <= bis  =>  per_node <= bis*(n-1)/(n/2)^2
    bis = bisection_bandwidth(topology, link_bandwidth)
    bisection_bound = bis * (n - 1) / ((n / 2) ** 2)

    # Capacity bound: total traffic work (rate x hops) fits in total capacity.
    total_capacity = 2 * topology.num_links * link_bandwidth  # directed links
    mean_hops = average_distance(topology)
    capacity_bound = total_capacity / (n * mean_hops) if mean_hops else float("inf")

    injection_peak = (topology.degree(topology.nodes[0])) * link_bandwidth
    return AllToAllAnalysis(
        num_nodes=n,
        link_bandwidth=link_bandwidth,
        per_node_throughput=per_node,
        bisection_bound=bisection_bound,
        capacity_bound=capacity_bound,
        injection_peak=injection_peak,
    )
