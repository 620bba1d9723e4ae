"""Per-layer host-time attribution for the traced benchmark run.

The benchmark measures the simulators from outside: nothing under
``src/`` knows it is being traced.  A :class:`LayerClock` wraps the
entry points of each layer -- public functions and methods, patched
where their callers look them up, plus the ``FleetScheduler`` methods
that ``repro.fleet.obs.profiler`` already shadows per instance -- and
charges host time to whichever layer is innermost at every moment.  A
layer's *self time* is therefore its span minus the spans of the
layers it calls, and the self times of all layers plus the
``unattributed`` remainder add up to the traced wall time exactly.

Each wrapped call costs a few hundred nanoseconds of its own, charged
to the layers on either side of it, so a layer entered tens of
thousands of times is overstated.  The one call site entered hundreds
of thousands of times, ``PodFabric.release`` on 64 pods, is therefore
counted in C and not timed.  The benchmark reports the whole cost of
tracing as ``trace.overhead``.

Layer names follow the repository's modules (``fleet.machine``,
``network.fairshare``, ...).  An entry point that a later refactor
removes is listed in :attr:`LayerClock.missing`, and the benchmark
then fails its run: the layer map must follow the code it measures.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator

UNATTRIBUTED = "unattributed"

#: Layers whose self time is reported, in report order.
LAYERS = (
    "sim.events",
    "fleet.scheduler.dispatch",
    "fleet.scheduler.queue_order",
    "fleet.scheduler.placement",
    "fleet.scheduler.cross_pod",
    "fleet.scheduler.defrag",
    "fleet.scheduler.preemption",
    "fleet.scheduler.lifecycle",
    "fleet.scheduler.accounting",
    "core.scheduler.plan_multi_region",
    "fleet.cluster",
    "fleet.machine.plan",
    "fleet.machine.apply",
    "fleet.machine.release",
    "fleet.fabric",
    "fleet.serve",
    "fleet.telemetry",
    "fleet.workload",
    "fleet.failures",
    "fleet.trace",
    "fleet.obs",
    "network.flowsim",
    "network.fairshare",
    "topology.build",
    "topology.routing",
)

#: Counters kept at the layer boundaries, in report order.
COUNTS = (
    "sim.events.fired",
    "fleet.scheduler.dispatch.calls",
    "fleet.scheduler.queue_order.calls",
    "fleet.scheduler.queue_visits",
    "fleet.scheduler.placement.calls",
    "fleet.scheduler.placement.placed",
    "fleet.scheduler.cross_pod.calls",
    "fleet.scheduler.cross_pod.placed",
    "fleet.scheduler.defrag.calls",
    "fleet.scheduler.defrag.placed",
    "fleet.scheduler.preemption.calls",
    "fleet.scheduler.preemption.placed",
    "fleet.scheduler.lifecycle.calls",
    "fleet.scheduler.accounting.calls",
    "core.scheduler.plan_multi_region.calls",
    "fleet.cluster.calls",
    "fleet.machine.release.calls",
    "fleet.fabric.release.calls",
    "fleet.fabric.release.useful",
    "fleet.serve.ticks",
    "fleet.obs.records",
    "fleet.obs.bytes",
    "fleet.trace.bytes",
    "network.flowsim.flows",
    "network.fairshare.calls",
    "network.fairshare.flows",
)

# The FleetScheduler methods shadowed on each instance, by layer.
_SCHEDULER_METHODS = {
    "fleet.scheduler.dispatch": ("dispatch",),
    "fleet.scheduler.queue_order": ("_queue_in_order",),
    "fleet.scheduler.placement": ("_find_anywhere",),
    "fleet.scheduler.cross_pod": ("_find_cross_pod",),
    "fleet.scheduler.defrag": ("_defrag_for",),
    # Covers the cross-pod preemption path too (it delegates).
    "fleet.scheduler.preemption": ("_preempt_for",),
    "fleet.scheduler.accounting": ("_account_segment",),
    # Event handlers and job start/stop: what an event does to a job,
    # apart from the placement search that dispatch runs.
    "fleet.scheduler.lifecycle": ("submit", "_complete", "on_block_down",
                                  "on_block_up", "_start", "_interrupt",
                                  "_halt_segment", "_release", "cancel",
                                  "finalize"),
}
_PLACING_LAYERS = ("fleet.scheduler.placement", "fleet.scheduler.cross_pod",
                   "fleet.scheduler.defrag", "fleet.scheduler.preemption")
_POD_METHODS = ("assign", "release", "first_free", "find_placement",
                "block_down", "block_up", "jobs_on", "free_mask")
_STATE_METHODS = ("free_by_pod", "pods_by_space", "check_conservation",
                  "check_invariants")
_SIM_METHODS = ("run", "step", "schedule", "schedule_at")


def _is_placement(result: Any) -> bool:
    return result is not None


class LayerClock:
    """Exclusive host time and boundary counts per named layer.

    Doubles as a ``DispatchProfiler`` for ``FleetSimulator.run``: the
    simulator hands :meth:`install` the run's scheduler, which is the
    only way to reach it from outside.
    """

    def __init__(self) -> None:
        names = (UNATTRIBUTED,) + LAYERS
        self.self_s: dict[str, float] = dict.fromkeys(names, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.missing: set[str] = set()
        self._c_counters: list[tuple[str, Any]] = []
        #: Stamped by FleetSimulator.run (profiler protocol); unused.
        self.run_seconds = 0.0
        self._current = UNATTRIBUTED
        self._mark = 0.0

    def reset(self) -> None:
        """Zero every time and count (between traced rounds)."""
        for table in (self.self_s, self.counts):
            for name in table:
                table[name] = 0

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable[..., Any], *,
             calls: str | None = None,
             tally: tuple[str, Callable[[Any], int]] | None = None
             ) -> Callable[..., Any]:
        """`fn` with its host time charged to `layer`.

        `calls` names a counter bumped once per call; `tally` is a
        (counter, increment-from-result) pair counting the outcome.
        The caller's layer is kept in the wrapper's own frame, so the
        interpreter's call stack is the layer stack.
        """
        self_s = self.self_s
        counts = self.counts
        counter, increment = tally if tally is not None else (None, None)
        clock = self
        now = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = now()
            caller = clock._current
            self_s[caller] += entered - clock._mark
            clock._current = layer
            clock._mark = entered
            try:
                result = fn(*args, **kwargs)
                if increment is not None:
                    counts[counter] += increment(result)
                return result
            finally:
                left = now()
                self_s[layer] += left - clock._mark
                clock._current = caller
                clock._mark = left
                if calls is not None:
                    counts[calls] += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _shadow(self, owner: Any, name: str, layer: str,
                **options: Any) -> None:
        """Shadow `owner.name` with a traced version on that instance."""
        method = getattr(owner, name, None)
        if method is None:
            self.missing.add(f"{type(owner).__name__}.{name}")
            return
        setattr(owner, name, self.wrap(layer, method, **options))

    # -- instance shadowing ----------------------------------------------------------

    def install(self, scheduler: Any, sim: Any) -> None:
        """Shadow one run's scheduler methods (DispatchProfiler protocol).

        The simulator and fleet state were already traced when their
        factories built them (see :meth:`session`).
        """
        del sim
        for layer, names in _SCHEDULER_METHODS.items():
            calls = f"{layer}.calls"
            tally = None
            if layer in _PLACING_LAYERS:
                tally = (f"{layer}.placed", _is_placement)
            elif layer == "fleet.scheduler.queue_order":
                tally = ("fleet.scheduler.queue_visits", len)
            for name in names:
                self._shadow(scheduler, name, layer, calls=calls,
                             tally=tally)

    def _trace_simulator(self, sim: Any) -> Any:
        for name in _SIM_METHODS:
            tally = ("sim.events.fired", bool) if name == "step" else None
            self._shadow(sim, name, "sim.events", tally=tally)
        return sim

    def _trace_state(self, state: Any) -> Any:
        for name in _STATE_METHODS:
            self._shadow(state, name, "fleet.cluster",
                         calls="fleet.cluster.calls")
        for pod in state.pods:
            for name in _POD_METHODS:
                self._shadow(pod, name, "fleet.cluster",
                             calls="fleet.cluster.calls")
        machine = state.machine
        if machine is None:
            return state
        for name in ("plan", "apply"):
            self._shadow(machine, name, f"fleet.machine.{name}")
        self._shadow(machine, "release", "fleet.machine.release",
                     calls="fleet.machine.release.calls")
        for fabric in machine.pods:
            self._shadow(fabric, "apply", "fleet.fabric")
            # Hyperscale makes ~80,000 of these calls per seed, almost
            # all no-ops; a timing wrapper would cost ten times the
            # work it measures.  An uncached lru_cache wrapper counts
            # them in C instead, and leaves their time with the caller
            # (fleet.machine.release); the switch-bank programming
            # they trigger is timed as fleet.fabric (SwitchBank).
            release = getattr(fabric, "release", None)
            if release is None:
                self.missing.add("PodFabric.release")
                continue
            counted = functools.lru_cache(maxsize=0)(release)
            fabric.release = counted
            self._c_counters.append(("fleet.fabric.release.calls", counted))
        return state

    def harvest(self) -> dict[str, int]:
        """The counts, with those kept by C-level counters folded in."""
        for name, counted in self._c_counters:
            self.counts[name] += counted.cache_info().misses
        self._c_counters.clear()
        return dict(self.counts)

    # -- module and class patches ------------------------------------------------------

    def _patches(self) -> Iterator[tuple[Any, str, Callable[..., Any]]]:
        """(owner, attribute, replacement) for every session patch."""
        import repro.fleet.obs.export as obs_export
        import repro.fleet.scheduler as fleet_scheduler
        import repro.fleet.simulator as fleet_simulator
        import repro.fleet.trace as fleet_trace
        import repro.network.flowsim as flowsim
        import repro.network.simcollectives as simcollectives
        import repro.sim.events as events
        import repro.topology.base as topology_base
        import repro.topology.routing as routing
        from repro.fleet.fabric import SwitchBank
        from repro.fleet.obs.tracer import ObsRecorder
        from repro.fleet.serve.tier import ServingTier
        from repro.fleet.telemetry import FleetTelemetry
        from repro.fleet.workload import TraceWorkload

        def traced(owner: Any, name: str, layer: str, **options: Any
                   ) -> Iterator[tuple[Any, str, Callable[..., Any]]]:
            original = getattr(owner, name, None)
            if original is None:
                self.missing.add(f"{getattr(owner, '__name__', owner)}"
                                 f".{name}")
                return
            yield owner, name, self.wrap(layer, original, **options)

        def factory(owner: Any, name: str, layer: str,
                    trace: Callable[[Any], Any]
                    ) -> Iterator[tuple[Any, str, Callable[..., Any]]]:
            cls = getattr(owner, name, None)
            if cls is None:
                self.missing.add(f"{owner.__name__}.{name}")
                return
            build = self.wrap(layer, cls)
            yield owner, name, lambda *args, **kwargs: trace(
                build(*args, **kwargs))

        # The event kernel, wherever a simulator is built.
        for owner in (fleet_simulator, flowsim):
            yield from factory(owner, "Simulator", "sim.events",
                               self._trace_simulator)
        yield from traced(events.Event, "cancel", "sim.events")
        # Fleet state: pods, machine fabric and per-pod fabrics.
        yield from factory(fleet_simulator, "FleetState", "fleet.cluster",
                           self._trace_state)
        yield from traced(SwitchBank, "connect", "fleet.fabric")
        yield from traced(SwitchBank, "disconnect", "fleet.fabric",
                          calls="fleet.fabric.release.useful")
        for name in ("plan_multi_region", "plan_multi_region_hypothetical"):
            yield from traced(fleet_scheduler, name,
                              "core.scheduler.plan_multi_region",
                              calls="core.scheduler.plan_multi_region.calls")
        yield from traced(ServingTier, "on_tick", "fleet.serve",
                          calls="fleet.serve.ticks")
        yield from traced(FleetTelemetry, "summary", "fleet.telemetry")
        yield from traced(fleet_simulator, "generate_jobs", "fleet.workload")
        yield from traced(TraceWorkload, "__call__", "fleet.workload")
        for name in ("build_failure_trace", "overlay_windows",
                     "spare_repair_count", "downtime_block_seconds",
                     "drained_block_seconds"):
            yield from traced(fleet_simulator, name, "fleet.failures")
        yield from traced(
            fleet_trace, "dumps_trace", "fleet.trace",
            tally=("fleet.trace.bytes", len))
        yield from traced(fleet_trace, "loads_trace", "fleet.trace")
        for name in ("span", "instant", "decision", "sample"):
            yield from traced(ObsRecorder, name, "fleet.obs",
                              calls="fleet.obs.records")
        for name in ("dumps_chrome_trace", "dumps_obs"):
            yield from traced(
                obs_export, name, "fleet.obs",
                tally=("fleet.obs.bytes", len))
        yield from traced(obs_export, "loads_obs", "fleet.obs")
        # The flow-level network simulator.
        yield from traced(flowsim, "max_min_fair_rates", "network.fairshare",
                          calls="network.fairshare.calls",
                          tally=("network.fairshare.flows", len))
        yield from traced(flowsim.FlowSim, "add_flow", "network.flowsim",
                          calls="network.flowsim.flows")
        for name in ("_start", "_complete_due", "run"):
            yield from traced(flowsim.FlowSim, name, "network.flowsim")
        yield from traced(topology_base.Topology, "__init__",
                          "topology.build")
        for owner in (simcollectives, flowsim):
            for name in ("topology_capacities", "route_links"):
                yield from traced(owner, name, "topology.routing")
        for name in ("path", "next_hops"):
            yield from traced(routing.RoutingTable, name, "topology.routing")

    @contextlib.contextmanager
    def session(self) -> Iterator[None]:
        """Trace every layer for the duration of the block.

        Patches are undone on exit, so code outside a session (the
        output checks) runs untraced and charges nothing.
        """
        undo = []
        for owner, name, replacement in list(self._patches()):
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
        self._current = UNATTRIBUTED
        self._mark = time.perf_counter()
        try:
            yield
        finally:
            self.self_s[UNATTRIBUTED] += time.perf_counter() - self._mark
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
