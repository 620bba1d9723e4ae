"""A fluid flow-level network simulator.

Flows carry bytes along fixed routes; active flows share links max-min
fairly.  Rates are solved once per simulated instant at which the flow set
changed: every start and completion at that instant, and every flow their
callbacks inject, goes in first, then one zero-delay settle event solves
the rates and schedules the next completion on the discrete-event kernel.
Completion callbacks can inject follow-up flows, which is how collective
schedules (e.g. the steps of a ring all-reduce) express dependencies.

Solving at every event instead gives bit-identical times: a solve that
another event at the same instant follows drains no bytes (no time
elapses) and its completion event is cancelled unfired.  A start still
cancels the scheduled completion at once, as a solve at the start would,
so a completion due at the instant a flow starts is re-solved with the
new flow rather than fired.

Links are numbered once, in capacity-map order, and ``add_flow`` interns
each route into those ints, so the solver never rehashes a coordinate
tuple; a route through a link the map lacks is rejected there, before
the flow is recorded.  ``Flow.route`` keeps the caller's link ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from repro.errors import SimulationError
from repro.network.fairshare import max_min_fair_rates
from repro.sim.events import Simulator

LinkId = Hashable


@dataclass
class Flow:
    """One transfer: `size` bytes along `route` (a sequence of link ids)."""

    flow_id: int
    route: tuple[LinkId, ...]
    size: float
    remaining: float
    on_complete: Optional[Callable[["Flow"], None]] = None
    finish_time: Optional[float] = None
    rate: float = 0.0

    @property
    def done(self) -> bool:
        """True once all bytes are delivered."""
        return self.finish_time is not None


class FlowSim:
    """Max-min fair fluid simulation over a static link-capacity map."""

    def __init__(self, capacities: dict[LinkId, float],
                 latency: float = 0.0) -> None:
        """Args:
            capacities: link id -> bytes/second.
            latency: fixed per-flow latency added before bytes flow
                (models propagation + fixed message overhead).
        """
        for link, capacity in capacities.items():
            if not (math.isfinite(capacity) and capacity > 0):
                raise SimulationError(
                    f"link {link} capacity must be finite and > 0, "
                    f"got {capacity}")
        if not (math.isfinite(latency) and latency >= 0):
            raise SimulationError(
                f"latency must be finite and >= 0, got {latency}")
        self.capacities = dict(capacities)
        self.latency = latency
        self.sim = Simulator()
        self.flows: list[Flow] = []
        # The solver's view: link ids as ints, per flow by flow_id.
        self._link_index = {link: index
                            for index, link in enumerate(self.capacities)}
        self._link_capacities = dict(enumerate(self.capacities.values()))
        self._routes: list[tuple[int, ...]] = []
        self._active: list[Flow] = []
        self._pending_event = None
        self._settle_pending = False
        self._last_update = 0.0

    # -- public API -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def add_flow(self, route: Sequence[LinkId], size: float, *,
                 delay: float = 0.0,
                 on_complete: Callable[[Flow], None] | None = None) -> Flow:
        """Inject a flow `delay` seconds from now; returns its handle."""
        if not (math.isfinite(size) and size >= 0):
            raise SimulationError(
                f"flow size must be finite and >= 0, got {size}")
        if not (math.isfinite(delay) and delay >= 0):
            raise SimulationError(
                f"flow delay must be finite and >= 0, got {delay}")
        route = tuple(route)
        try:
            links = tuple([self._link_index[link] for link in route])
        except KeyError as error:
            raise SimulationError(
                f"flow route uses unknown link {error.args[0]}") from None
        flow = Flow(flow_id=len(self.flows), route=route, size=size,
                    remaining=size,
                    on_complete=on_complete)
        self.flows.append(flow)
        self._routes.append(links)
        self.sim.schedule(delay + self.latency, lambda: self._start(flow))
        return flow

    def run(self, max_events: int | None = 1_000_000) -> float:
        """Run to completion; returns the final simulation time."""
        self.sim.run(max_events=max_events)
        stuck = [f for f in self.flows if not f.done]
        if stuck:
            raise SimulationError(
                f"{len(stuck)} flows never completed (zero-rate routes?)")
        return self.sim.now

    # -- internals ------------------------------------------------------------------

    def _start(self, flow: Flow) -> None:
        self._advance_progress()
        # The flow set changes, so the scheduled completion is stale.
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if flow.size == 0 or not flow.route:
            flow.finish_time = self.sim.now
            if flow.on_complete:
                flow.on_complete(flow)
        else:
            self._active.append(flow)
        self._settle()

    def _advance_progress(self) -> None:
        """Drain bytes at current rates for the elapsed interval."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            for flow in self._active:
                flow.remaining = max(flow.remaining - flow.rate * elapsed, 0.0)
        self._last_update = self.sim.now

    def _settle(self) -> None:
        """Re-solve the rates once every event at this instant has run."""
        if not self._settle_pending:
            self._settle_pending = True
            self.sim.schedule(0.0, self._reschedule)

    def _reschedule(self) -> None:
        """Compute fair rates and schedule the next completion event."""
        self._settle_pending = False
        if not self._active:
            return
        routes = self._routes
        rates = max_min_fair_rates([routes[f.flow_id] for f in self._active],
                                   self._link_capacities)
        soonest = math.inf
        for flow, rate in zip(self._active, rates):
            flow.rate = rate
            if rate <= 0:
                raise SimulationError(
                    f"flow {flow.flow_id} got zero rate; check capacities")
            soonest = min(soonest, flow.remaining / rate)
        self._pending_event = self.sim.schedule(soonest, self._complete_due)

    def _complete_due(self) -> None:
        self._advance_progress()
        finished = [f for f in self._active if f.remaining <= 1e-9]
        self._active = [f for f in self._active if f.remaining > 1e-9]
        self._pending_event = None
        for flow in finished:
            flow.remaining = 0.0
            flow.finish_time = self.sim.now
        # Callbacks may add flows; settle after they are in.
        for flow in finished:
            if flow.on_complete:
                flow.on_complete(flow)
        self._settle()


def topology_capacities(topology, link_bandwidth: float) -> dict[LinkId, float]:
    """Directed link-capacity map for a repro topology.

    Parallel links appear as one directed link id with summed capacity.
    """
    capacities: dict[LinkId, float] = {}
    for u, v, mult in topology.edges():
        capacities[(u, v)] = mult * link_bandwidth
        capacities[(v, u)] = mult * link_bandwidth
    return capacities


def route_links(path: Sequence) -> list[tuple]:
    """Convert a node path into the directed link ids FlowSim expects."""
    return [(u, v) for u, v in zip(path, path[1:])]
