"""Tests for the fluid flow simulator."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.network.flowsim as flowsim
from repro.errors import SimulationError
from repro.network import FlowSim
from repro.network.flowsim import route_links, topology_capacities
from repro.topology import Torus3D


class TestFlowSim:
    def test_single_flow_time(self):
        sim = FlowSim({"a": 10.0})
        flow = sim.add_flow(["a"], 100.0)
        assert sim.run() == pytest.approx(10.0)
        assert flow.finish_time == pytest.approx(10.0)

    def test_two_flows_share_then_speed_up(self):
        # Both flows share (rate 5) until the short one finishes, then the
        # long one gets the full link.
        sim = FlowSim({"a": 10.0})
        short = sim.add_flow(["a"], 50.0)
        long = sim.add_flow(["a"], 150.0)
        sim.run()
        assert short.finish_time == pytest.approx(10.0)
        # Long flow: 50 bytes by t=10 (rate 5), then 100 at rate 10 -> t=20.
        assert long.finish_time == pytest.approx(20.0)

    def test_staggered_start(self):
        sim = FlowSim({"a": 10.0})
        first = sim.add_flow(["a"], 100.0)
        second = sim.add_flow(["a"], 100.0, delay=5.0)
        sim.run()
        # First runs alone 5s (50 bytes), shares 10s (50 bytes) -> t=15.
        assert first.finish_time == pytest.approx(15.0)
        # Second: shares 10s (50), alone 5s (50) -> t=20.
        assert second.finish_time == pytest.approx(20.0)

    def test_zero_size_completes_immediately(self):
        sim = FlowSim({"a": 1.0})
        flow = sim.add_flow(["a"], 0.0)
        sim.run()
        assert flow.finish_time == pytest.approx(0.0)

    def test_dependency_chaining(self):
        sim = FlowSim({"a": 10.0})
        order = []

        def second_stage(done_flow):
            order.append("first-done")
            sim.add_flow(["a"], 100.0,
                         on_complete=lambda f: order.append("second-done"))

        sim.add_flow(["a"], 100.0, on_complete=second_stage)
        total = sim.run()
        assert order == ["first-done", "second-done"]
        assert total == pytest.approx(20.0)

    def test_latency_applies_before_bytes(self):
        sim = FlowSim({"a": 10.0}, latency=1.0)
        flow = sim.add_flow(["a"], 100.0)
        sim.run()
        assert flow.finish_time == pytest.approx(11.0)

    def test_negative_size_rejected(self):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError):
            sim.add_flow(["a"], -1.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FlowSim({"a": 0.0})

    def test_disjoint_flows_run_in_parallel(self):
        sim = FlowSim({"a": 10.0, "b": 10.0})
        fa = sim.add_flow(["a"], 100.0)
        fb = sim.add_flow(["b"], 100.0)
        sim.run()
        assert fa.finish_time == pytest.approx(10.0)
        assert fb.finish_time == pytest.approx(10.0)

    def test_unfinished_flow_query_raises(self):
        sim = FlowSim({"a": 1.0})
        flow = sim.add_flow(["a"], 10.0)
        with pytest.raises(SimulationError):
            sim.completion_time(flow)


class TestTopologyIntegration:
    def test_capacities_include_multiplicity(self):
        torus = Torus3D((4, 1, 1))
        caps = topology_capacities(torus, 50.0)
        assert caps[((0, 0, 0), (1, 0, 0))] == 50.0
        assert len(caps) == 2 * torus.num_links

    def test_route_links(self):
        path = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert route_links(path) == [((0, 0, 0), (1, 0, 0)),
                                     ((1, 0, 0), (2, 0, 0))]

    def test_neighbor_exchange_on_ring(self):
        from repro.topology.routing import shortest_path
        torus = Torus3D((4, 1, 1))
        caps = topology_capacities(torus, 10.0)
        sim = FlowSim(caps)
        pairs = [(node, neighbor) for node in torus.nodes
                 for neighbor in torus.unique_neighbors(node)]
        for src, dst in pairs:
            sim.add_flow(route_links(shortest_path(torus, src, dst)), 100.0)
        # Each direction of each link carries exactly one flow: 10 s.
        assert sim.run() == pytest.approx(10.0)


class PerEventFlowSim(FlowSim):
    """The reference: solves the rates at every start and completion."""

    def _settle(self) -> None:
        self._reschedule()


def run_scenario(sim_class, capacities, latency, specs):
    """Run flow specs ``(route, size, delay, follow_ups)``; a flow's
    follow-up specs are injected when it completes.  Returns every flow's
    finish time, in creation order, and the final clock."""
    sim = sim_class(capacities, latency=latency)

    def add(spec):
        route, size, delay, follow_ups = spec

        def inject(_flow):
            for follow_up in follow_ups:
                add(follow_up)

        sim.add_flow(route, size, delay=delay,
                     on_complete=inject if follow_ups else None)

    for spec in specs:
        add(spec)
    end = sim.run()
    return [flow.finish_time for flow in sim.flows], end


LINKS = ("a", "b", "c", "d")
#: Small value sets, so simultaneous starts, equal shares and a start
#: landing exactly on a due completion (0.9 bytes at 3.0 takes 0.3 s)
#: all occur often.
SIZES = st.one_of(st.sampled_from([0.0, 0.3, 0.9, 1.0, 3.3, 10.0]),
                  st.floats(min_value=0.01, max_value=100.0))
DELAYS = st.sampled_from([0.0, 0.0, 0.3, 1.0, 3.0])


def flow_specs(follow_ups):
    return st.tuples(st.lists(st.sampled_from(LINKS), max_size=3), SIZES,
                     DELAYS, follow_ups)


@st.composite
def scenarios(draw):
    caps = {link: draw(st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0]))
            for link in LINKS}
    latency = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    leaf = flow_specs(st.just(()))
    middle = flow_specs(st.lists(leaf, max_size=3))
    specs = draw(st.lists(flow_specs(st.lists(middle, max_size=2)),
                          min_size=1, max_size=12))
    return caps, latency, specs


class TestSolveOncePerInstant:
    """One rate solve per instant gives the per-event solver's times."""

    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_finish_times_match_per_event_solving(self, scenario):
        caps, latency, specs = scenario
        assert run_scenario(FlowSim, caps, latency, specs) == \
            run_scenario(PerEventFlowSim, caps, latency, specs)

    def test_start_at_a_due_completion(self):
        # The first flow is due at 0.9 / 3.0 s, the instant the second
        # starts; the start comes first, so the due completion is
        # re-solved with both flows active, not fired as scheduled.
        specs = [(["a"], 0.9, 0.0, ()), (["a"], 10.0, 0.9 / 3.0, ())]
        batched = run_scenario(FlowSim, {"a": 3.0}, 0.0, specs)
        assert batched == run_scenario(PerEventFlowSim, {"a": 3.0}, 0.0,
                                       specs)
        assert batched[0] == [0.30000000000000004, 3.6333333333333337]

    def test_one_solve_for_simultaneous_starts(self, monkeypatch):
        solves = []
        solve = flowsim.max_min_fair_rates

        def counting(routes, capacities):
            solves.append(len(routes))
            return solve(routes, capacities)

        monkeypatch.setattr(flowsim, "max_min_fair_rates", counting)
        ring = Torus3D((64, 1, 1))
        sim = FlowSim(topology_capacities(ring, 10.0))
        at_first_completion = []

        def on_complete(_flow):
            if not at_first_completion:
                at_first_completion.append(list(solves))

        for x in range(64):
            sim.add_flow(route_links([(x, 0, 0), ((x + 1) % 64, 0, 0)]),
                         100.0, on_complete=on_complete)
        assert sim.run() == 10.0
        assert at_first_completion == [[64]]


def _capacity(value):
    return lambda: FlowSim({"a": value})


def _latency(value):
    return lambda: FlowSim({"a": 1.0}, latency=value)


def _flow(size=1.0, delay=0.0):
    def run():
        sim = FlowSim({"a": 1.0})
        sim.add_flow(["a"], size, delay=delay)
        sim.run()
    return run


class TestHostileInputs:
    @pytest.mark.parametrize("case", [
        _capacity(math.inf), _capacity(math.nan), _capacity(-1.0),
        _latency(math.inf), _latency(math.nan), _latency(-1.0),
        _flow(size=math.inf), _flow(size=math.nan),
        _flow(delay=math.inf), _flow(delay=math.nan), _flow(delay=-1.0),
    ], ids=["capacity-inf", "capacity-nan", "capacity-negative",
            "latency-inf", "latency-nan", "latency-negative",
            "size-inf", "size-nan",
            "delay-inf", "delay-nan", "delay-negative"])
    def test_typed_error_within_a_second(self, case):
        start = time.perf_counter()
        with pytest.raises(SimulationError):
            case()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("size", [1.0, 0.0])
    def test_unknown_link_rejected_at_add_flow(self, size):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError, match="unknown link zzz"):
            sim.add_flow(["a", "zzz"], size)
        assert sim.flows == []
        assert sim.run() == 0.0

    def test_rejected_flow_is_not_recorded(self):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError):
            sim.add_flow(["a"], 1.0, delay=-1.0)
        assert sim.flows == []
        assert sim.run() == 0.0
