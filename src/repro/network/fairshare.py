"""Max-min fair rate allocation (progressive filling).

Given flows that each traverse a set of capacity-limited links, the
max-min fair allocation repeatedly saturates the most-constrained link,
freezes its flows at the bottleneck fair share, and recurses on the rest.
This is the standard fluid model for congestion-controlled networks; the
flow simulator solves it once per simulated instant at which the flow set
changed.

Each link keeps a count of the traversals by still-active flows, built
once and decremented as flows freeze, so a filling round is one scan of
the links rather than a re-count of every link's flows.  The scan order,
the strict ``<`` tie-break, the freeze order and the per-traversal charge
are those of the plain algorithm, so the rates are bit-identical to it.

Link ids are only hashed and compared: the build makes one ``weight``
lookup per traversal and reads ``capacities`` once per link.  Any
one-to-one relabeling of the ids keeps their identity and first-use
order, so it gives the same rates; the flow simulator passes small ints,
which hash far faster than nested coordinate tuples.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

from repro.errors import SimulationError

LinkId = Hashable


def max_min_fair_rates(
    flow_routes: Sequence[Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> list[float]:
    """Compute the max-min fair rate for each flow.

    Args:
        flow_routes: per flow, the links it traverses (loop-free; a flow
            using a link twice counts it twice).
        capacities: per-link capacity; every referenced link must appear
            with a finite, non-negative capacity.

    Returns one rate per flow, in input order.  Flows with empty routes
    (src == dst, purely local) get infinite rate represented as
    ``float('inf')``.

    >>> max_min_fair_rates([["a"], ["a"], ["a", "b"]], {"a": 3.0, "b": 0.5})
    [1.25, 1.25, 0.5]
    """
    # Per link, in order of first use: spare capacity, the number of
    # traversals by active flows, and the distinct flows on it in order.
    remaining: dict[LinkId, float] = {}
    weight: dict[LinkId, int] = {}
    flows_on: dict[LinkId, list[int]] = {}
    for flow_id, route in enumerate(flow_routes):
        for link in route:
            count = weight.get(link)
            if count is None:
                if link not in capacities:
                    raise SimulationError(
                        f"flow {flow_id} uses unknown link {link}")
                remaining[link] = float(capacities[link])
                weight[link] = 1
                flows_on[link] = [flow_id]
            else:
                weight[link] = count + 1
                on_link = flows_on[link]
                if on_link[-1] != flow_id:
                    on_link.append(flow_id)

    for link, capacity in remaining.items():
        if not 0.0 <= capacity < math.inf:
            raise SimulationError(
                f"link {link} capacity must be finite and >= 0, "
                f"got {capacity}")

    rates = [0.0] * len(flow_routes)
    active = {flow_id for flow_id, route in enumerate(flow_routes) if route}
    for flow_id, route in enumerate(flow_routes):
        if not route:
            rates[flow_id] = float("inf")

    while active:
        # Find the tightest link: smallest fair share for its active flows.
        bottleneck_share = None
        bottleneck_link = None
        for link, count in weight.items():
            if count == 0:
                continue
            share = remaining[link] / count
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            break  # remaining active flows traverse no congested link
        for flow_id in flows_on[bottleneck_link]:
            if flow_id not in active:
                continue
            rates[flow_id] = bottleneck_share
            active.discard(flow_id)
            # Charge this flow's rate against every link traversal.
            for link in flow_routes[flow_id]:
                left = remaining[link] - bottleneck_share
                remaining[link] = 0.0 if left < 0.0 else left
                weight[link] -= 1
    return rates
