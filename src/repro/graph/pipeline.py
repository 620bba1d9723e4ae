"""Pipeline-parallel schedules: the third parallelism type (Section 2.7).

"Pipeline Parallelism: for a DNN with many layers, each chip computes a
subset of layers, and communicates the layer results to chips holding
the adjacent layers."  Table 3's GPT-3 case runs pipeline depth 16.

Two classic synchronous schedules over one training step:

* **GPipe** — all microbatch forwards, then all backwards.  Simple,
  but every in-flight microbatch's activations stay resident, so peak
  memory grows with the microbatch count.
* **1F1B** — after a warm-up of (stages - position) forwards, each
  stage alternates one backward with one forward.  Same bubble for
  uniform stage times, but peak residency is capped by the stage count
  — the reason deep pipelines fit in 32 GiB of HBM (Section 7.10).

Both run on the discrete-event kernel with explicit dependencies, so
the pipeline bubble *emerges* from the schedule rather than being a
pasted-in formula; the closed form (stages-1)/(microbatches+stages-1)
is exposed separately for validation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import Simulator


class PipelineSchedule(enum.Enum):
    """Which synchronous schedule orders the microbatch work."""

    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


@dataclass(frozen=True)
class PipelineConfig:
    """One pipelined training step.

    Attributes:
        num_stages: pipeline depth (chips groups along the pipeline axis).
        num_microbatches: microbatches per global batch.
        forward_seconds: per-stage forward time of one microbatch.
        backward_seconds: per-stage backward time (typically ~2x forward).
        permute_seconds: stage-boundary activation transfer time (one
            neighbour send on the pipeline mesh axis, given by the
            caller).
        schedule: GPipe or 1F1B.
    """

    num_stages: int
    num_microbatches: int
    forward_seconds: float
    backward_seconds: float
    permute_seconds: float = 0.0
    schedule: PipelineSchedule = PipelineSchedule.ONE_F_ONE_B

    def __post_init__(self) -> None:
        if self.num_stages < 1 or self.num_microbatches < 1:
            raise ConfigurationError(
                "stages and microbatches must be >= 1")
        if min(self.forward_seconds, self.backward_seconds) <= 0:
            raise ConfigurationError("stage times must be > 0")
        if self.permute_seconds < 0:
            raise ConfigurationError("permute time must be >= 0")


@dataclass
class PipelineOutcome:
    """Measured behaviour of one simulated step."""

    config: PipelineConfig
    step_seconds: float
    ideal_seconds: float
    peak_activations: int

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the step the pipeline sits idle."""
        return 1.0 - self.ideal_seconds / self.step_seconds

    @property
    def efficiency(self) -> float:
        """Useful fraction (1 - bubble)."""
        return self.ideal_seconds / self.step_seconds


def analytic_bubble_fraction(num_stages: int,
                             num_microbatches: int) -> float:
    """The textbook bubble: (s - 1) / (m + s - 1), uniform stages."""
    if num_stages < 1 or num_microbatches < 1:
        raise ConfigurationError("stages and microbatches must be >= 1")
    return (num_stages - 1) / (num_microbatches + num_stages - 1)


class _StageState:
    """Work queue and occupancy of one pipeline stage."""

    def __init__(self, index: int, config: PipelineConfig) -> None:
        self.index = index
        self.config = config
        self.busy = False
        self.fwd_ready: list[int] = []   # microbatches with inputs present
        self.bwd_ready: list[int] = []
        self.fwd_done = 0
        self.bwd_done = 0
        self.resident = 0                # activations held
        self.peak_resident = 0

    def next_work(self) -> tuple[str, int] | None:
        """Pick the next (kind, microbatch) under the schedule policy."""
        gpipe = self.config.schedule is PipelineSchedule.GPIPE
        if gpipe:
            if self.fwd_ready:
                return "fwd", self.fwd_ready.pop(0)
            if self.fwd_done == self.config.num_microbatches \
                    and self.bwd_ready:
                return "bwd", self.bwd_ready.pop(0)
            return None
        # 1F1B: at most (stages - index) microbatches in flight per
        # stage; at the cap only a backward (which retires one) may
        # run.  This is what caps residency at the pipeline depth.
        in_flight_cap = self.config.num_stages - self.index
        if self.fwd_ready and (self.fwd_done - self.bwd_done) < in_flight_cap:
            return "fwd", self.fwd_ready.pop(0)
        if self.bwd_ready:
            return "bwd", self.bwd_ready.pop(0)
        return None


def simulate_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Run one step of the schedule on the event kernel."""
    sim = Simulator()
    stages = [_StageState(i, config) for i in range(config.num_stages)]
    last = config.num_stages - 1

    def dispatch(stage: _StageState) -> None:
        if stage.busy:
            return
        work = stage.next_work()
        if work is None:
            return
        kind, microbatch = work
        stage.busy = True
        duration = (config.forward_seconds if kind == "fwd"
                    else config.backward_seconds)

        def finish() -> None:
            stage.busy = False
            if kind == "fwd":
                stage.fwd_done += 1
                stage.resident += 1
                stage.peak_resident = max(stage.peak_resident,
                                          stage.resident)
                if stage.index < last:
                    sim.schedule(config.permute_seconds,
                                 lambda: _arrive_fwd(stage.index + 1,
                                                     microbatch))
                else:
                    stage.bwd_ready.append(microbatch)
            else:
                stage.bwd_done += 1
                stage.resident -= 1
                if stage.index > 0:
                    sim.schedule(config.permute_seconds,
                                 lambda: _arrive_bwd(stage.index - 1,
                                                     microbatch))
            dispatch(stage)

        sim.schedule(duration, finish)

    def _arrive_fwd(index: int, microbatch: int) -> None:
        stages[index].fwd_ready.append(microbatch)
        dispatch(stages[index])

    def _arrive_bwd(index: int, microbatch: int) -> None:
        stages[index].bwd_ready.append(microbatch)
        dispatch(stages[index])

    for microbatch in range(config.num_microbatches):
        stages[0].fwd_ready.append(microbatch)
    dispatch(stages[0])
    budget = 8 * config.num_stages * config.num_microbatches + 64
    sim.run(max_events=budget)

    for stage in stages:
        if stage.fwd_done != config.num_microbatches \
                or stage.bwd_done != config.num_microbatches:
            raise SimulationError(
                f"stage {stage.index} finished {stage.fwd_done} fwd / "
                f"{stage.bwd_done} bwd of {config.num_microbatches}")

    per_microbatch = config.forward_seconds + config.backward_seconds
    return PipelineOutcome(
        config=config,
        step_seconds=sim.now,
        ideal_seconds=config.num_microbatches * per_microbatch,
        peak_activations=max(s.peak_resident for s in stages))
