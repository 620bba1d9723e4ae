"""Time-series sampling of fleet state on a sim-time cadence.

The sampler rides the same deterministic event kernel as the run it
observes: at construction it schedules one read-only callback every
``obs_sample_every_seconds`` of simulated time, from t=0 through the
horizon, and each firing appends one row to the recorder's
:class:`~repro.fleet.obs.tracer.SampleColumns` — queue depth, running
jobs, trunk-port occupancy, and free blocks per pod.

Sampling must not perturb the run: callbacks only *read* scheduler and
fleet state, never mutate it, so enabling observability changes no
placement, no telemetry bucket, and no summary value.  (It does fire
extra events, so :attr:`FleetReport.events_fired` grows — the one
visible side effect, and why that counter is not part of the summary.)
Because sampler events are scheduled after the run's job arrivals and
outages, a sample at time t observes the state *after* every same-time
arrival/outage has applied — the end-of-tick view, stable across runs
by the kernel's insertion-order tie-break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # import cycle guard (scheduler imports obs)
    from repro.fleet.cluster import FleetState
    from repro.fleet.obs.tracer import ObsRecorder
    from repro.fleet.scheduler import FleetScheduler
    from repro.sim.events import Simulator


class MetricsSampler:
    """Schedules periodic state snapshots into a recorder."""

    #: Hard ceiling on eagerly scheduled sample ticks.  Eager
    #: scheduling is what fixes the event population (and the kernel's
    #: same-time tie-breaks) before the first event fires, so the
    #: sampler keeps it — but a misconfigured cadence (milliseconds
    #: against a week-long horizon) would materialize the whole tick
    #: population in memory up front.  Rather than silently chunking
    #: (which would change the event population and with it the
    #: tie-break contract), an over-cap cadence is rejected outright.
    MAX_TICKS = 100_000

    def __init__(self, recorder: "ObsRecorder",
                 scheduler: "FleetScheduler", state: "FleetState",
                 every_seconds: float) -> None:
        if every_seconds <= 0:
            raise ConfigurationError(
                f"sample cadence must be > 0 seconds, got {every_seconds}")
        self.recorder = recorder
        self.scheduler = scheduler
        self.state = state
        self.every_seconds = every_seconds

    @classmethod
    def check_cadence(cls, every_seconds: float, horizon: float) -> None:
        """Reject a (positive) cadence needing over :attr:`MAX_TICKS`
        ticks: run by :meth:`install`, and by the CLI before any I/O."""
        if horizon / every_seconds >= cls.MAX_TICKS:
            raise ConfigurationError(
                f"sample cadence {every_seconds}s over a "
                f"{horizon}s horizon needs more than {cls.MAX_TICKS} "
                f"ticks; raise obs_sample_every_seconds")

    def install(self, sim: "Simulator", horizon: float) -> int:
        """Schedule every sample tick up to the horizon; returns count.

        Ticks are scheduled eagerly (the count is known up front) rather
        than self-rescheduling, so the event population — and with it
        the run's event-order tie-breaks — is fixed before the first
        event fires.  Cadences needing more than :attr:`MAX_TICKS`
        ticks raise :class:`ConfigurationError` instead of scheduling
        an unbounded event flood.
        """
        self.check_cadence(self.every_seconds, horizon)
        ticks = 0
        time = 0.0
        while time <= horizon:
            sim.schedule_at(time, lambda t=time: self._sample(t))
            ticks += 1
            time = ticks * self.every_seconds
        return ticks

    def _sample(self, time: float) -> None:
        """Append one read-only snapshot of fleet state."""
        machine = self.state.machine
        self.recorder.sample(
            time=time,
            queue_depth=len(self.scheduler.queue),
            running_jobs=len(self.scheduler.running),
            trunk_ports_in_use=machine.trunk_in_use()
            if machine is not None else 0,
            free_by_pod=[pod.num_free for pod in self.state.pods])
