"""Tests cross-validating simulated collectives against analytic models."""

import re

import pytest

import repro.network.flowsim as flowsim
from repro.errors import SimulationError
from repro.network.collectives import ring_allreduce_time
from repro.network.simcollectives import (simulate_alltoall,
                                          simulate_ring_allreduce)
from repro.topology import Torus3D, TwistedTorus3D


class TestSimulatedRingAllReduce:
    def test_matches_analytic_on_clean_ring(self):
        torus = Torus3D((4, 4, 8))
        simulated = simulate_ring_allreduce(torus, 1e6, 50e9, dim=2)
        analytic = ring_allreduce_time(8, 1e6, 50e9)
        assert simulated.seconds == pytest.approx(analytic, rel=0.01)

    def test_defaults_to_longest_dim(self):
        torus = Torus3D((4, 4, 8))
        default = simulate_ring_allreduce(torus, 1e6, 50e9)
        explicit = simulate_ring_allreduce(torus, 1e6, 50e9, dim=2)
        assert default.seconds == pytest.approx(explicit.seconds)

    def test_flow_count(self):
        torus = Torus3D((4, 4, 8))
        result = simulate_ring_allreduce(torus, 1e6, 50e9, dim=2)
        # 16 rings x 2 directions x 8 nodes x 14 steps.
        assert result.flows == 16 * 2 * 8 * 14

    def test_scales_with_bytes(self):
        torus = Torus3D((4, 1, 1))
        small = simulate_ring_allreduce(torus, 1e5, 50e9, dim=0)
        large = simulate_ring_allreduce(torus, 2e5, 50e9, dim=0)
        assert large.seconds == pytest.approx(2 * small.seconds, rel=0.01)

    def test_degenerate_dim_rejected(self):
        with pytest.raises(SimulationError):
            simulate_ring_allreduce(Torus3D((4, 4, 1)), 1e6, 50e9, dim=2)

    @pytest.mark.parametrize("dim", [3, -1])
    def test_out_of_range_dim_rejected(self, dim):
        with pytest.raises(SimulationError, match="dim must be"):
            simulate_ring_allreduce(Torus3D((4, 4, 8)), 1e6, 50e9, dim=dim)

    @pytest.mark.parametrize("topology, dim, link", [
        (TwistedTorus3D((4, 4, 8)), 0, ((3, 0, 0), (0, 0, 0))),
        (TwistedTorus3D((2, 2, 4), twists={2: (1, 0, 0)}), None,
         ((0, 0, 3), (0, 0, 0))),
    ], ids=["4x4x8-dim0", "2x2x4-dim2"])
    def test_ring_along_twisted_dim_rejected_before_solving(
            self, monkeypatch, topology, dim, link):
        # Coordinate-order rings close through a wrap link the twist
        # moved elsewhere; the flow that names it is refused when added.
        solves = []
        solve = flowsim.max_min_fair_rates

        def counting(routes, capacities):
            solves.append(len(routes))
            return solve(routes, capacities)

        monkeypatch.setattr(flowsim, "max_min_fair_rates", counting)
        with pytest.raises(SimulationError,
                           match=re.escape(f"unknown link {link}")):
            simulate_ring_allreduce(topology, 1e6, 50e9, dim=dim)
        assert solves == []

    def test_two_ring_matches_analytic(self):
        torus = Torus3D((2, 1, 1))
        result = simulate_ring_allreduce(torus, 1e6, 50e9, dim=0)
        # Both nodes exchange B/4 chunks over the full-duplex link for
        # each of the 2 steps: B/(2C), the n=2 analytic value.
        assert result.seconds == pytest.approx(
            ring_allreduce_time(2, 1e6, 50e9), rel=0.01)


class TestSimulatedAllToAll:
    def test_small_torus_completes(self):
        torus = Torus3D((3, 3, 3))
        result = simulate_alltoall(torus, 1e4, 50e9)
        assert result.flows == 27 * 26
        assert result.seconds > 0

    def test_twisted_beats_regular_in_simulation(self):
        """The Figure 6 effect shows up even with single-path routing."""
        regular = simulate_alltoall(Torus3D((2, 2, 4)), 1e4, 50e9)
        twisted = simulate_alltoall(TwistedTorus3D((2, 2, 4),
                                                   twists={2: (1, 0, 0)}),
                                    1e4, 50e9)
        # Same node count; the twisted variant should not be slower.
        assert twisted.seconds <= regular.seconds * 1.05

    def test_node_cap_enforced(self):
        with pytest.raises(SimulationError):
            simulate_alltoall(Torus3D((8, 8, 8)), 1e4, 50e9, max_nodes=64)

    def test_slower_than_ecmp_bound(self):
        """Single-path simulation can't beat the ECMP analytic bound."""
        from repro.network.analytic import alltoall_analysis
        torus = Torus3D((3, 3, 3))
        per_pair = 1e4
        simulated = simulate_alltoall(torus, per_pair, 50e9)
        analysis = alltoall_analysis(torus, 50e9)
        ideal_seconds = per_pair * (torus.num_nodes - 1) \
            / analysis.per_node_throughput
        assert simulated.seconds >= ideal_seconds * 0.99


class TestGoldenTimes:
    """Routing, FlowSim and the solver together, pinned bit for bit.

    Simulated seconds at 50 GB/s links: all-to-all at 1e4 bytes per
    pair, ring all-reduce of 1e6 bytes.  Any change that moves one bit
    of a route, a rate or a completion time fails here.
    """

    @pytest.mark.parametrize("shape, seconds", [
        ((2, 2, 2), 1.8000000000000001e-06),
        ((2, 2, 4), 5.400000000000001e-06),
        ((3, 3, 3), 4.9999999999999996e-06),
        ((4, 4, 2), 1.62e-05),
        ((2, 4, 4), 1.62e-05),
        ((3, 4, 5), 2.6999999999999802e-05),
    ], ids=lambda value: "x".join(map(str, value))
        if isinstance(value, tuple) else None)
    def test_torus_alltoall(self, shape, seconds):
        assert simulate_alltoall(Torus3D(shape), 1e4, 50e9).seconds == seconds

    def test_twisted_alltoall(self):
        twisted = TwistedTorus3D((2, 2, 4), twists={2: (1, 0, 0)})
        assert simulate_alltoall(twisted, 1e4, 50e9).seconds == \
            3.000000000000001e-06

    @pytest.mark.parametrize("dim, seconds", [
        (0, 1.3333333333333333e-05),
        (1, 1.5e-05),
        (2, 1.6e-05),
    ])
    def test_torus_ring(self, dim, seconds):
        result = simulate_ring_allreduce(Torus3D((3, 4, 5)), 1e6, 50e9,
                                         dim=dim)
        assert result.seconds == seconds

    @pytest.mark.parametrize("dim, seconds", [
        (1, 1.5e-05),
        (2, 1.7500000000000002e-05),
    ])
    def test_twisted_ring_on_untwisted_dims(self, dim, seconds):
        result = simulate_ring_allreduce(TwistedTorus3D((4, 4, 8)), 1e6,
                                         50e9, dim=dim)
        assert result.seconds == seconds
