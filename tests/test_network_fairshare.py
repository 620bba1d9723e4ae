"""Tests for max-min fair allocation."""

import math
from typing import Hashable, Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.network import max_min_fair_rates


class TestMaxMinFair:
    def test_single_flow_gets_capacity(self):
        assert max_min_fair_rates([["a"]], {"a": 10.0}) == [10.0]

    def test_equal_split(self):
        rates = max_min_fair_rates([["a"], ["a"]], {"a": 10.0})
        assert rates == [5.0, 5.0]

    def test_classic_bottleneck(self):
        # Flow 2 is pinned by link b; flows 0/1 split the leftovers of a.
        rates = max_min_fair_rates([["a"], ["a"], ["a", "b"]],
                                   {"a": 3.0, "b": 0.5})
        assert rates == [1.25, 1.25, 0.5]

    def test_empty_route_is_infinite(self):
        rates = max_min_fair_rates([[], ["a"]], {"a": 1.0})
        assert math.isinf(rates[0])
        assert rates[1] == 1.0

    def test_multi_traversal_counts_twice(self):
        # A flow crossing the link twice gets half the single-pass share.
        rates = max_min_fair_rates([["a", "a"]], {"a": 10.0})
        assert rates == [5.0]

    def test_unknown_link_raises(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([["zzz"]], {"a": 1.0})

    @pytest.mark.parametrize("capacity", [-1.0, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_bad_capacity_raises(self, capacity):
        with pytest.raises(SimulationError, match="link a"):
            max_min_fair_rates([["a"], ["b"]], {"a": capacity, "b": 1.0})

    def test_parking_lot_fairness(self):
        # Chain topology: long flow through all links, short flows each.
        routes = [["l0", "l1", "l2"], ["l0"], ["l1"], ["l2"]]
        caps = {"l0": 1.0, "l1": 1.0, "l2": 1.0}
        rates = max_min_fair_rates(routes, caps)
        assert rates[0] == pytest.approx(0.5)
        assert rates[1:] == pytest.approx([0.5, 0.5, 0.5])

    @given(st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_no_link_oversubscribed(self, num_flows, num_links):
        links = [f"l{i}" for i in range(num_links)]
        caps = {link: 1.0 + i for i, link in enumerate(links)}
        routes = [[links[(i + j) % num_links] for j in range((i % num_links) + 1)]
                  for i in range(num_flows)]
        rates = max_min_fair_rates(routes, caps)
        usage = {link: 0.0 for link in links}
        for route, rate in zip(routes, rates):
            for link in route:
                usage[link] += rate
        for link in links:
            assert usage[link] <= caps[link] + 1e-6

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_symmetric_flows_equal_rates(self, n):
        routes = [["shared"] for _ in range(n)]
        rates = max_min_fair_rates(routes, {"shared": 7.0})
        assert all(r == pytest.approx(7.0 / n) for r in rates)


def reference_max_min_fair_rates(
    flow_routes: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
) -> list[float]:
    """Plain progressive filling: every round re-counts every link.

    The implementation keeps per-link counts incrementally instead; this
    is the algorithm it must match bit for bit.
    """
    remaining = {}
    usage_count: dict[Hashable, dict[int, int]] = {}
    for flow_id, route in enumerate(flow_routes):
        for link in route:
            if link not in capacities:
                raise SimulationError(f"flow {flow_id} uses unknown link {link}")
            remaining.setdefault(link, float(capacities[link]))
            usage_count.setdefault(link, {})
            usage_count[link][flow_id] = usage_count[link].get(flow_id, 0) + 1

    for link, capacity in remaining.items():
        if capacity < 0:
            raise SimulationError(f"link {link} has negative capacity")

    rates = [0.0] * len(flow_routes)
    active = {flow_id for flow_id, route in enumerate(flow_routes) if route}
    for flow_id, route in enumerate(flow_routes):
        if not route:
            rates[flow_id] = float("inf")

    while active:
        # Find the tightest link: smallest fair share for its active flows.
        bottleneck_share = None
        bottleneck_link = None
        for link, flows_on_link in usage_count.items():
            weight = sum(mult for fid, mult in flows_on_link.items()
                         if fid in active)
            if weight == 0:
                continue
            share = remaining[link] / weight
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            break  # remaining active flows traverse no congested link
        frozen = [fid for fid in usage_count[bottleneck_link] if fid in active]
        for flow_id in frozen:
            rates[flow_id] = bottleneck_share
            active.discard(flow_id)
            # Charge this flow's rate against every link traversal.
            for link in flow_routes[flow_id]:
                remaining[link] = max(remaining[link] - bottleneck_share, 0.0)
    return rates


#: Few distinct capacities, so equal fair shares (ties) are common.
CAPACITIES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0, 50e9]),
    st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def route_sets(draw):
    """Up to 40 flows over up to 8 links; repeats and empty routes allowed."""
    links = [f"l{i}" for i in range(draw(st.integers(1, 8)))]
    caps = {link: draw(CAPACITIES) for link in links}
    routes = draw(st.lists(st.lists(st.sampled_from(links), max_size=6),
                           max_size=40))
    return routes, caps


class TestExactnessOracle:
    """The incremental solver equals plain progressive filling exactly."""

    @given(route_sets())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_exactly(self, case):
        routes, caps = case
        assert max_min_fair_rates(routes, caps) == \
            reference_max_min_fair_rates(routes, caps)

    @given(route_sets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_relabeled_links_give_identical_rates(self, case, data):
        # The solver uses a link id only for identity and first-use
        # order, which any one-to-one relabeling keeps.
        routes, caps = case
        labels = data.draw(st.permutations(range(len(caps))))
        relabel = dict(zip(caps, labels))
        relabeled_routes = [[relabel[link] for link in route]
                            for route in routes]
        relabeled_caps = {relabel[link]: cap for link, cap in caps.items()}
        assert max_min_fair_rates(relabeled_routes, relabeled_caps) == \
            max_min_fair_rates(routes, caps)

    def test_matches_reference_on_torus_alltoall(self):
        from repro.network.flowsim import route_links, topology_capacities
        from repro.topology import TwistedTorus3D
        from repro.topology.routing import RoutingTable
        torus = TwistedTorus3D((2, 2, 4), twists={2: (1, 0, 0)})
        table = RoutingTable(torus)
        routes = [route_links(table.path(src, dst))
                  for src in torus.nodes for dst in torus.nodes]
        caps = topology_capacities(torus, 50e9)
        assert max_min_fair_rates(routes, caps) == \
            reference_max_min_fair_rates(routes, caps)
