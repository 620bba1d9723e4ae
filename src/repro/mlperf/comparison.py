"""MLPerf comparison methodology (Figures 14-15).

Reported points are joined by log-log interpolation ("the dashed lines
are interpolations for intermediate sized systems"), and systems are
compared at equal chip counts; performance is 1/time scaled by the chip
ratio when counts differ slightly (4096 TPU v4 vs 4216 A100).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.mlperf.results import entries_for


@dataclass(frozen=True)
class ScalingSeries:
    """One system's (chips, minutes) curve for one benchmark."""

    benchmark: str
    system: str
    chips: tuple[int, ...]
    minutes: tuple[float, ...]


def scaling_series(benchmark: str, system: str) -> ScalingSeries:
    """Anchor series for one (benchmark, system)."""
    entries = entries_for(benchmark, system)
    return ScalingSeries(
        benchmark=benchmark,
        system=system,
        chips=tuple(e.chips for e in entries),
        minutes=tuple(e.minutes for e in entries),
    )


def interpolate_time(benchmark: str, system: str, chips: int) -> float:
    """Train time at `chips` by log-log interpolation of the anchors.

    Extrapolation outside the submitted range is refused — the paper only
    draws dashed lines *between* points.
    """
    entries = entries_for(benchmark, system)
    sizes = [e.chips for e in entries]
    if not sizes[0] <= chips <= sizes[-1]:
        raise ConfigurationError(
            f"{system} submitted {benchmark} only for {sizes[0]}..{sizes[-1]} "
            f"chips; cannot interpolate at {chips}")
    for entry in entries:
        if entry.chips == chips:
            return entry.minutes
    for low, high in zip(entries, entries[1:]):
        if low.chips < chips < high.chips:
            frac = ((math.log(chips) - math.log(low.chips))
                    / (math.log(high.chips) - math.log(low.chips)))
            log_time = (math.log(low.minutes) * (1 - frac)
                        + math.log(high.minutes) * frac)
            return math.exp(log_time)
    raise ConfigurationError("interpolation fell through")  # pragma: no cover


def equal_size_ratio(benchmark: str, system_a: str, system_b: str,
                     chips: int, *, chips_b: int | None = None) -> float:
    """How much faster system_a is than system_b at (near-)equal size.

    When `chips_b` differs from `chips`, per-chip fairness scales the
    comparison by the chip ratio (the paper's 4096-vs-4216 adjustment).
    """
    chips_b = chips_b if chips_b is not None else chips
    time_a = interpolate_time(benchmark, system_a, chips)
    time_b = interpolate_time(benchmark, system_b, chips_b)
    return (time_b / time_a) * (chips_b / chips)


def fastest_relative_to_a100(benchmark: str) -> dict[str, float]:
    """Figure 14: each system's fastest submission relative to the A100's.

    Performance = 1/minutes of the *fastest* (largest) submission; no size
    normalization — Figure 14 explicitly lets vendors pick system size.
    """
    a100 = entries_for(benchmark, "A100")[-1]
    out: dict[str, float] = {}
    from repro.mlperf.results import systems_in
    for system in systems_in(benchmark):
        best = entries_for(benchmark, system)[-1]
        out[system] = a100.minutes / best.minutes
    return out
