"""Deterministic span tracing for fleet runs.

The fleet simulator's results are end-of-run aggregates; operating a
machine needs the *timeline* underneath them — when each job queued,
rewired, restored, ran, and why the scheduler placed or rejected it.
This module records that timeline as four deterministic record streams:

* **spans** — per-job lifecycle intervals (``queued``, ``reconfig``,
  ``restore``, ``running``), emitted at segment-accounting time so span
  boundaries are *exactly* the boundaries the utilization identity
  banks.  A job's spans never overlap, and its ``running`` spans carry
  the identity's per-segment split (useful, replay, checkpoint writes,
  trunk stall) in their args.
* **instants** — point events: outages and repairs, deployment drains,
  trunk rewirings, preemptions, interruptions, migrations, completions.
* **decisions** — the scheduler decision log: one record per dispatch
  pass and queued job on which a placement rung ran, with outcome
  (placed via which rung, or rejected) and cause.
* **samples** — the time-series columns filled by
  :class:`repro.fleet.obs.metrics.MetricsSampler`.

Every timestamp is *simulation* time — wall-clock never leaks into a
record — so double runs of the same scenario produce byte-identical
exports.  The scheduler runs the same path with or without a
recorder; without one it holds the shared :data:`NULL_RECORDER`,
whose ``enabled`` flag gates the one hot-path call site (the decision
log inside the dispatch loop) and whose event methods are no-ops,
keeping the disabled overhead to attribute checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.errors import TraceError

#: Decision outcomes: the rung that placed the job, or a rejection.
PLACED_CAUSES = ("pod_local", "defrag", "cross_pod", "preemption")
REJECTED_CAUSES = ("insufficient_blocks", "insufficient_trunk_ports",
                   "preemption_declined")


class Span(NamedTuple):
    """One per-job lifecycle interval, in simulation seconds.

    `name` is the phase, in lifecycle order: ``queued`` covers submission
    (or requeue) to placement; ``reconfig``, ``restore`` and ``running``
    partition every placed segment: the fabric rewires, the checkpoint
    restores, the job runs.
    """

    name: str
    job_id: int
    start: float
    end: float
    args: dict[str, Any]

    @property
    def duration(self) -> float:
        """Length of the span in simulated seconds."""
        return self.end - self.start


class Instant(NamedTuple):
    """One point event, in simulation seconds."""

    name: str
    time: float
    args: dict[str, Any]


class Decision(NamedTuple):
    """One scheduler placement attempt and its audited outcome."""

    time: float
    job_id: int
    kind: str     # workload kind, for the per-job-class export track
    blocks: int
    priority: int
    outcome: str  # 'placed' | 'rejected'
    cause: str    # a PLACED_CAUSES or REJECTED_CAUSES member

    @property
    def placed(self) -> bool:
        """True when the attempt produced a placement."""
        return self.outcome == "placed"


@dataclass
class SampleColumns:
    """Time-series buffers, one parallel column per metric.

    Column layout (not a list of per-sample objects) so the coming
    vectorized event core can hand these straight to numpy: every
    column is a plain list appended in time order, and ``free_blocks``
    is one column per pod.
    """

    times: list[float] = field(default_factory=list)
    queue_depth: list[int] = field(default_factory=list)
    running_jobs: list[int] = field(default_factory=list)
    trunk_ports_in_use: list[int] = field(default_factory=list)
    free_blocks: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.free_blocks and not self.times:
            # Columns are only ever built together; a free_blocks
            # column without timestamps is a construction bug.
            raise ValueError("free_blocks columns require times")

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: float, queue_depth: int, running_jobs: int,
               trunk_ports_in_use: int,
               free_by_pod: list[int]) -> None:
        """Append one sample across every column.

        Raises:
            TraceError: `free_by_pod` holds another number of pods than
                the first row; no column changes.
        """
        if not self.times:
            self.free_blocks = [[] for _ in free_by_pod]
        elif len(free_by_pod) != len(self.free_blocks):
            raise TraceError(
                f"sample row has {len(free_by_pod)} pod counts, but the "
                f"first row has {len(self.free_blocks)}")
        self.times.append(time)
        self.queue_depth.append(queue_depth)
        self.running_jobs.append(running_jobs)
        self.trunk_ports_in_use.append(trunk_ports_in_use)
        for column, value in zip(self.free_blocks, free_by_pod):
            column.append(value)


class NullRecorder:
    """The disabled recorder: every hook is a no-op.

    Shared as :data:`NULL_RECORDER` so the scheduler and simulator can
    call observability hooks unconditionally on cold paths and gate
    only the dispatch-loop decision log on :attr:`enabled`.
    """

    enabled = False

    def span(self, name: str, job_id: int, start: float, end: float,
             **args: Any) -> None:
        pass

    def instant(self, name: str, time: float, **args: Any) -> None:
        pass

    def decision(self, time: float, job_id: int, kind: str, blocks: int,
                 priority: int, outcome: str, cause: str) -> None:
        pass

    def sample(self, time: float, queue_depth: int, running_jobs: int,
               trunk_ports_in_use: int,
               free_by_pod: list[int]) -> None:
        pass


#: The process-wide disabled recorder (stateless, safe to share).
NULL_RECORDER = NullRecorder()


@dataclass
class ObsRecorder:
    """The live recorder: accumulates one run's observability log.

    One recorder belongs to one :meth:`FleetSimulator.run` call — the
    simulator stamps the run's identity (policy, strategy, seed, fleet
    shape) into :attr:`meta` at run start, and the exporters in
    :mod:`repro.fleet.obs.export` serialize the finished log.  Records
    append in event-execution order, which the deterministic event
    kernel fixes, so the log itself is deterministic.
    """

    enabled = True

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    samples: SampleColumns = field(default_factory=SampleColumns)

    def span(self, name: str, job_id: int, start: float, end: float,
             **args: Any) -> None:
        """Record one closed per-job interval."""
        self.spans.append(Span(name, job_id, start, end, args))

    def instant(self, name: str, time: float, **args: Any) -> None:
        """Record one point event."""
        self.instants.append(Instant(name, time, args))

    def decision(self, time: float, job_id: int, kind: str, blocks: int,
                 priority: int, outcome: str, cause: str) -> None:
        """Record one placement attempt's outcome and cause."""
        self.decisions.append(Decision(time, job_id, kind, blocks,
                                       priority, outcome, cause))

    def sample(self, time: float, queue_depth: int, running_jobs: int,
               trunk_ports_in_use: int,
               free_by_pod: list[int]) -> None:
        """Record one time-series sample across every column."""
        self.samples.append(time, queue_depth, running_jobs,
                            trunk_ports_in_use, free_by_pod)

    @property
    def num_records(self) -> int:
        """Total records held (spans + instants + decisions + samples)."""
        return len(self.spans) + len(self.instants) + \
            len(self.decisions) + len(self.samples)

    def rejection_counts(self) -> dict[str, int]:
        """Rejected-attempt counts by cause, descending, ties by name."""
        counts: dict[str, int] = {}
        for decision in self.decisions:
            if not decision.placed:
                counts[decision.cause] = counts.get(decision.cause, 0) + 1
        return dict(sorted(counts.items(),
                           key=lambda item: (-item[1], item[0])))
