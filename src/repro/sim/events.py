"""A minimal discrete-event simulation kernel.

Events are (time, sequence, callback) triples kept in a binary heap.  The
sequence number makes the ordering of same-time events deterministic
(insertion order), which keeps every simulation in the library reproducible.

The heap stores bare ``(time, seq, event)`` tuples rather than the event
objects themselves: sift comparisons then run entirely on C-level tuple
ordering (seq is unique, so the event object is never compared), which is
what makes the cancel-heavy fleet workload cheap at hyperscale event
counts.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time at which the event fires.
        seq: tie-breaker preserving insertion order for equal times.
        action: zero-argument callable run when the event fires.
        cancelled: cancelled events stay in the heap (lazy deletion) until
            the owning queue compacts them away.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, action: Callable[[], None],
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue = queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(time={self.time!r}, seq={self.seq}, {state})"

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Cancellation is lazy: a cancelled event stays heap-resident and is
    skipped on pop.  Long-running simulations that cancel most of what
    they schedule (fleet runs rescheduling completions after every
    failure) would grow the heap without bound, so the queue counts
    cancellations and compacts the heap once dead events dominate.
    """

    #: Never compact below this many dead events; avoids churn on tiny heaps.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        # Heap entries are (time, seq, event); seq is unique, so tuple
        # comparison never reaches the event object.
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule `action` at absolute time `time` and return the event."""
        seq = next(self._counter)
        event = Event(time, seq, action, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            # Detach so a later cancel() of the (no longer heap-resident)
            # event cannot skew the dead-event counter.
            event._queue = None
            if not event.cancelled:
                return event
            self._cancelled -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._queue = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if self._cancelled >= self.COMPACT_MIN_CANCELLED and \
                self._cancelled * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event and re-heapify the survivors."""
        self._heap = [entry for entry in self._heap
                      if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0


class Simulator:
    """Runs an :class:`EventQueue` while advancing a monotonic clock."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self._events_fired = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule `action` to run `delay` seconds after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self.queue.push(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule `action` at absolute simulation time `time`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}")
        return self.queue.push(time, action)

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event time {event.time} precedes clock {self.now}")
        self.now = event.time
        self._events_fired += 1
        event.action()
        return True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run until the queue drains, `until` is reached, or a budget hits.

        Args:
            until: stop (and advance the clock to this time) once the next
                event would fire later than `until`.
            max_events: safety valve against runaway simulations.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded event budget of {max_events} events")
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            self.step()
            fired += 1


AnyEvent = Any
