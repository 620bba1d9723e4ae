"""Tests for repro.core.checkpoint: Young/Daly policy + failure injection."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import (CheckpointParams, IntervalSweepPoint,
                                   expected_overhead, goodput_fraction,
                                   optimal_interval, simulate_run,
                                   sweep_intervals)
from repro.errors import ConfigurationError
from repro.units import DAY, HOUR, MINUTE


class TestParams:
    def test_system_mtbf_divides_by_hosts(self):
        params = CheckpointParams(num_hosts=1000,
                                  host_mtbf_seconds=1000 * HOUR)
        assert params.system_mtbf_seconds == pytest.approx(HOUR)

    def test_default_scale_is_3k_slice(self):
        params = CheckpointParams()
        # 768 hosts at 120-day MTBF: failures every few hours.
        assert 2 * HOUR < params.system_mtbf_seconds < 6 * HOUR

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            CheckpointParams(num_hosts=0)
        with pytest.raises(ConfigurationError):
            CheckpointParams(host_mtbf_seconds=0)
        with pytest.raises(ConfigurationError):
            CheckpointParams(checkpoint_seconds=-1)


class TestOptimalInterval:
    def test_young_daly_formula(self):
        params = CheckpointParams(num_hosts=100,
                                  host_mtbf_seconds=100 * HOUR,
                                  checkpoint_seconds=18.0)
        assert optimal_interval(params) == pytest.approx(
            math.sqrt(2 * 18.0 * HOUR))

    def test_optimum_minimizes_analytic_overhead(self):
        params = CheckpointParams()
        best = optimal_interval(params)
        at_best = expected_overhead(best, params)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert expected_overhead(best * factor, params) >= at_best

    def test_zero_cost_checkpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_interval(CheckpointParams(checkpoint_seconds=0))


class TestExpectedOverhead:
    def test_terms_add_up(self):
        params = CheckpointParams(num_hosts=1,
                                  host_mtbf_seconds=10 * HOUR,
                                  checkpoint_seconds=60.0,
                                  restore_seconds=300.0)
        tau = HOUR
        expected = 60 / tau + tau / (2 * 10 * HOUR) + 300 / (10 * HOUR)
        assert expected_overhead(tau, params) == pytest.approx(expected)

    def test_capped_at_one(self):
        params = CheckpointParams(num_hosts=10_000,
                                  host_mtbf_seconds=1 * HOUR)
        assert expected_overhead(10 * HOUR, params) == 1.0

    def test_goodput_is_complement(self):
        params = CheckpointParams()
        tau = 20 * MINUTE
        assert goodput_fraction(tau, params) == pytest.approx(
            1 - expected_overhead(tau, params))

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_overhead(0, CheckpointParams())


class TestSweep:
    def test_optimum_marked_and_best(self):
        params = CheckpointParams()
        sweep = sweep_intervals(params)
        optimal = [p for p in sweep if p.is_optimal]
        assert len(optimal) == 1
        assert optimal[0].overhead == pytest.approx(
            min(p.overhead for p in sweep))

    def test_sorted_by_interval(self):
        sweep = sweep_intervals(CheckpointParams())
        intervals = [p.interval_seconds for p in sweep]
        assert intervals == sorted(intervals)

    def test_custom_grid(self):
        params = CheckpointParams()
        sweep = sweep_intervals(params, [MINUTE, HOUR])
        assert len(sweep) == 3  # grid + optimum
        assert all(isinstance(p, IntervalSweepPoint) for p in sweep)


class TestMonteCarlo:
    def test_matches_analytic_at_optimum(self):
        params = CheckpointParams()
        tau = optimal_interval(params)
        outcome = simulate_run(params, tau, duration_seconds=200 * DAY,
                               seed=11)
        analytic = goodput_fraction(tau, params)
        assert outcome.measured_goodput == pytest.approx(analytic, abs=0.03)

    def test_failure_count_tracks_mtbf(self):
        params = CheckpointParams()
        duration = 100 * DAY
        outcome = simulate_run(params, optimal_interval(params),
                               duration_seconds=duration, seed=5)
        expected = duration / params.system_mtbf_seconds
        assert outcome.failures == pytest.approx(expected, rel=0.25)

    def test_deterministic_per_seed(self):
        params = CheckpointParams()
        a = simulate_run(params, HOUR, seed=9)
        b = simulate_run(params, HOUR, seed=9)
        assert a.lost_seconds == b.lost_seconds
        assert a.failures == b.failures

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_run(CheckpointParams(), 0)
        with pytest.raises(ConfigurationError):
            simulate_run(CheckpointParams(), HOUR, duration_seconds=0)

    def test_too_frequent_checkpointing_hurts(self):
        params = CheckpointParams()
        best = simulate_run(params, optimal_interval(params),
                            duration_seconds=100 * DAY, seed=2)
        eager = simulate_run(params, MINUTE,
                             duration_seconds=100 * DAY, seed=2)
        assert best.measured_goodput > eager.measured_goodput


@settings(max_examples=30)
@given(st.integers(1, 4096), st.floats(30 * DAY, 365 * DAY),
       st.floats(5.0, 300.0))
def test_overhead_at_optimum_beats_neighbors(hosts, mtbf, cost):
    """Young/Daly optimum is a local minimum for any deployment."""
    params = CheckpointParams(num_hosts=hosts, host_mtbf_seconds=mtbf,
                              checkpoint_seconds=cost)
    best = optimal_interval(params)
    at_best = expected_overhead(best, params)
    assert expected_overhead(best * 1.5, params) >= at_best - 1e-12
    assert expected_overhead(best / 1.5, params) >= at_best - 1e-12
