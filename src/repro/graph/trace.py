"""Execution traces produced by the graph scheduler.

A trace is the list of (op, engine, start, end) intervals one
representative chip executed — SPMD programs run the same schedule on
every chip, so one chip's timeline *is* the step time.  The trace knows
how to validate itself (engine exclusivity, dependency ordering),
summarise utilization, compute model-FLOPs utilization (the metric
behind the abstract's "~60% of peak FLOPS/second"), and render an ASCII
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(frozen=True)
class OpRecord:
    """One executed op interval."""

    name: str
    kind: str
    engine: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the op occupied its engine."""
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """The timeline of one simulated training step."""

    records: list[OpRecord] = field(default_factory=list)
    dependencies: dict[str, tuple[str, ...]] = field(default_factory=dict)

    # -- aggregates ---------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End-to-end step time."""
        return max((r.end for r in self.records), default=0.0)

    @property
    def engines(self) -> list[str]:
        """Engines that executed at least one op, sorted."""
        return sorted({r.engine for r in self.records})

    def busy_seconds(self, engine: str) -> float:
        """Total occupied time of one engine."""
        return sum(r.duration for r in self.records if r.engine == engine)

    def utilization(self, engine: str) -> float:
        """Busy fraction of one engine over the makespan."""
        span = self.makespan
        return self.busy_seconds(engine) / span if span > 0 else 0.0

    def exposed_comm_seconds(self) -> float:
        """Communication time not hidden under compute.

        Wall-clock during which some ICI channel is busy and no compute
        engine is — the time overlap (Wang et al. [59]) exists to remove.
        """
        comm = self._union(is_comm=True)
        compute = self._union(is_comm=False)
        exposed = 0.0
        for start, end in comm:
            exposed += end - start - _overlap_with(start, end, compute)
        return exposed

    def mfu(self, model_flops: float, peak_flops: float) -> float:
        """Model FLOPs utilization: useful FLOPs / (peak * step time)."""
        span = self.makespan
        if span <= 0 or peak_flops <= 0:
            return 0.0
        return model_flops / (peak_flops * span)

    # -- validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check engine exclusivity and dependency ordering."""
        by_engine: dict[str, list[OpRecord]] = {}
        ends: dict[str, float] = {}
        for r in self.records:
            if r.end < r.start:
                raise SimulationError(f"op {r.name!r} ends before it starts")
            by_engine.setdefault(r.engine, []).append(r)
            ends[r.name] = r.end
        for engine, records in by_engine.items():
            records = sorted(records, key=lambda r: (r.start, r.end))
            for prev, cur in zip(records, records[1:]):
                if cur.start < prev.end - 1e-12:
                    raise SimulationError(
                        f"engine {engine!r}: {cur.name!r} starts at "
                        f"{cur.start} before {prev.name!r} ends at {prev.end}")
        starts = {r.name: r.start for r in self.records}
        for name, deps in self.dependencies.items():
            for dep in deps:
                if dep in ends and name in starts \
                        and starts[name] < ends[dep] - 1e-12:
                    raise SimulationError(
                        f"op {name!r} starts before its input {dep!r} ends")

    # -- rendering ---------------------------------------------------------------------

    def timeline(self, width: int = 72) -> str:
        """ASCII gantt chart, one row per engine."""
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        lines = []
        for engine in self.engines:
            cells = [" "] * width
            for r in self.records:
                if r.engine != engine:
                    continue
                lo = int(r.start / span * (width - 1))
                hi = max(lo, int(r.end / span * (width - 1)))
                for i in range(lo, hi + 1):
                    cells[i] = "#" if not r.kind.startswith("all") else "="
            lines.append(f"{engine:>14} |{''.join(cells)}|")
        lines.append(f"{'':>14} 0{' ' * (width - 10)}{span * 1e3:8.3f} ms")
        return "\n".join(lines)

    def summary(self) -> str:
        """Multi-line utilization report."""
        lines = [f"makespan: {self.makespan * 1e3:.3f} ms"]
        for engine in self.engines:
            lines.append(f"  {engine}: busy {self.busy_seconds(engine) * 1e3:.3f} ms "
                         f"({self.utilization(engine):.1%})")
        lines.append(f"  exposed comm: "
                     f"{self.exposed_comm_seconds() * 1e3:.3f} ms")
        return "\n".join(lines)

    # -- helpers -----------------------------------------------------------------------

    def _union(self, *, is_comm: bool) -> list[tuple[float, float]]:
        """Merged busy intervals of comm (or compute) engines."""
        intervals = sorted(
            (r.start, r.end) for r in self.records
            if r.engine.startswith("ici") == is_comm and r.duration > 0)
        merged: list[tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


def _overlap_with(start: float, end: float,
                  intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by a merged interval list."""
    covered = 0.0
    for lo, hi in intervals:
        covered += max(0.0, min(end, hi) - max(start, lo))
    return covered
