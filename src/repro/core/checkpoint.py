"""Checkpoint-interval policy for everything-must-work training (Sec. 1).

"Reaching such a scale raises reliability problems that are
particularly compounded by the HPC-style, checkpoint/restore,
everything-must-work way that DNN training is performed."

With thousands of hosts, the *system* MTBF is the per-host MTBF divided
by the host count — a 4K-chip slice with 1K hosts at 120-day host MTBF
fails about every three hours.  The classic Young/Daly analysis then
fixes the checkpoint cadence: checkpoint too often and the writes eat
the run; too rarely and each failure replays hours of work.  This
module provides the closed-form optimum, the overhead curve around it,
and a failure-injection Monte Carlo that validates the closed form.
The fleet scheduler (:mod:`repro.fleet.scheduler`) checkpoints every
training job at :func:`optimal_interval`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.rng import make_rng
from repro.units import DAY, MINUTE


@dataclass(frozen=True)
class CheckpointParams:
    """Reliability and cost constants of one training deployment.

    Attributes:
        num_hosts: CPU hosts under the job (4 chips per host).
        host_mtbf_seconds: mean time between failures of one host.
        checkpoint_seconds: wall-clock cost of writing one checkpoint.
        restore_seconds: detect + reschedule + reload after a failure.
    """

    num_hosts: int = 768              # a 3072-chip slice
    host_mtbf_seconds: float = 120 * DAY
    checkpoint_seconds: float = 30.0
    restore_seconds: float = 8 * MINUTE

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ConfigurationError("need at least one host")
        if self.host_mtbf_seconds <= 0:
            raise ConfigurationError("host MTBF must be > 0")
        if self.checkpoint_seconds < 0 or self.restore_seconds < 0:
            raise ConfigurationError("costs must be >= 0")

    @property
    def system_mtbf_seconds(self) -> float:
        """MTBF of the whole slice: any host down interrupts the job."""
        return self.host_mtbf_seconds / self.num_hosts


def optimal_interval(params: CheckpointParams) -> float:
    """Young/Daly optimum: sqrt(2 * checkpoint_cost * system_MTBF)."""
    if params.checkpoint_seconds == 0:
        raise ConfigurationError(
            "zero-cost checkpoints have no finite optimal interval")
    return math.sqrt(2 * params.checkpoint_seconds
                     * params.system_mtbf_seconds)


def expected_overhead(interval: float, params: CheckpointParams) -> float:
    """Expected fraction of wall-clock lost at a checkpoint cadence.

    Three terms: checkpoint writes (C/tau), expected replay per failure
    (tau/2 each MTBF), and restore per failure (R each MTBF).
    """
    if interval <= 0:
        raise ConfigurationError(f"interval must be > 0, got {interval}")
    mtbf = params.system_mtbf_seconds
    writes = params.checkpoint_seconds / interval
    replay = interval / (2 * mtbf)
    restore = params.restore_seconds / mtbf
    return min(1.0, writes + replay + restore)


def goodput_fraction(interval: float, params: CheckpointParams) -> float:
    """Useful-work fraction at a cadence (1 - expected overhead)."""
    return 1.0 - expected_overhead(interval, params)


@dataclass(frozen=True)
class IntervalSweepPoint:
    """One cadence in an overhead sweep."""

    interval_seconds: float
    overhead: float
    goodput: float
    is_optimal: bool


def sweep_intervals(params: CheckpointParams,
                    intervals: list[float] | None = None
                    ) -> list[IntervalSweepPoint]:
    """Overhead across cadences, the Young/Daly point marked.

    Default grid: 1 minute to 8 hours, log-spaced, plus the optimum.
    """
    if intervals is None:
        intervals = [MINUTE * 2 ** i for i in range(10)]  # 1 min .. ~8.5 h
    best = optimal_interval(params)
    grid = sorted(set(intervals) | {best})
    return [IntervalSweepPoint(
        interval_seconds=tau,
        overhead=expected_overhead(tau, params),
        goodput=goodput_fraction(tau, params),
        is_optimal=(tau == best)) for tau in grid]


@dataclass(frozen=True)
class MonteCarloOutcome:
    """Failure-injection measurement of one cadence."""

    interval_seconds: float
    duration_seconds: float
    failures: int
    lost_seconds: float

    @property
    def measured_goodput(self) -> float:
        """Useful fraction of the simulated run."""
        return 1.0 - self.lost_seconds / self.duration_seconds


def simulate_run(params: CheckpointParams, interval: float, *,
                 duration_seconds: float = 50 * DAY,
                 seed: int = 0) -> MonteCarloOutcome:
    """Failure-injection run: exponential failures against a cadence.

    Each failure rolls back to the last checkpoint boundary and pays the
    restore cost; checkpoint writes accrue continuously.  Used by tests
    to validate :func:`expected_overhead` end to end.
    """
    if interval <= 0 or duration_seconds <= 0:
        raise ConfigurationError("interval and duration must be > 0")
    rng = make_rng(seed)
    mtbf = params.system_mtbf_seconds
    clock = 0.0
    since_checkpoint = 0.0
    lost = 0.0
    failures = 0
    next_failure = rng.exponential(mtbf)
    while clock < duration_seconds:
        to_checkpoint = interval - since_checkpoint
        if clock + to_checkpoint < next_failure:
            clock += to_checkpoint
            lost += params.checkpoint_seconds
            clock += params.checkpoint_seconds
            since_checkpoint = 0.0
            continue
        # A failure lands inside this checkpoint interval.
        progressed = next_failure - clock
        clock = next_failure
        lost += since_checkpoint + progressed  # replayed work
        lost += params.restore_seconds
        clock += params.restore_seconds
        since_checkpoint = 0.0
        failures += 1
        next_failure = clock + rng.exponential(mtbf)
    return MonteCarloOutcome(interval_seconds=interval,
                             duration_seconds=clock,
                             failures=failures, lost_seconds=lost)
