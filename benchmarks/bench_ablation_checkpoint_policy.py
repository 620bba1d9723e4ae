"""Ablation: checkpoint cadence for everything-must-work training.

Section 1 frames the reliability problem; this ablation shows the
Young/Daly optimum for a 3K-chip slice and validates the closed form
against failure injection.  The fleet engine checkpoints at this
optimum, and its 50-day training run (`bench_ablation_training_run`)
lands within 0.02 of the ~90% goodput.
"""

import pytest

from repro.core.checkpoint import (CheckpointParams, goodput_fraction,
                                   optimal_interval, simulate_run,
                                   sweep_intervals)
from repro.units import DAY, MINUTE


def test_ablation_checkpoint_policy(benchmark):
    params = CheckpointParams()
    outcome = benchmark.pedantic(
        lambda: simulate_run(params, optimal_interval(params),
                             duration_seconds=100 * DAY, seed=11),
        rounds=3, iterations=1)
    best = optimal_interval(params)
    print()
    print(f"system MTBF: {params.system_mtbf_seconds / 3600:.2f} h "
          f"({params.num_hosts} hosts)")
    print(f"Young/Daly optimum: {best / MINUTE:.1f} min")
    print(f"analytic goodput at optimum: "
          f"{goodput_fraction(best, params):.1%}")
    print(f"failure-injection goodput:   {outcome.measured_goodput:.1%} "
          f"({outcome.failures} failures over 100 days)")
    for point in sweep_intervals(params, [4 * MINUTE, 64 * MINUTE]):
        marker = " <- optimal" if point.is_optimal else ""
        print(f"  tau={point.interval_seconds / MINUTE:6.1f} min  "
              f"goodput {point.goodput:.1%}{marker}")
    assert outcome.measured_goodput == pytest.approx(
        goodput_fraction(best, params), abs=0.03)
    assert goodput_fraction(best, params) > \
        goodput_fraction(4 * MINUTE, params)
    assert goodput_fraction(best, params) > \
        goodput_fraction(64 * MINUTE, params)
