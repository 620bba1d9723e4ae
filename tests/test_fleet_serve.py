"""Tests for the online serving tier (repro.fleet.serve)."""

import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError
from repro.fleet import FleetSimulator, compare_autoscalers, preset_config
from repro.fleet.config import FleetConfig
from repro.fleet.serve import (AUTOSCALERS, SERVE_SCHEMA, ModelTraffic,
                               ReplicaPool, SurgeWindow, desired_replicas,
                               reconciliation_residual, scenario_for,
                               scenario_names)
from repro.fleet.serve import tier
from repro.fleet.serve.tier import _TAIL_MEANS, _mixture_quantile
from repro.units import DAY, HOUR, MINUTE

#: A serve fleet small enough for unit tests: light background
#: training so the pools contend with something, one simulated day.
SERVE_CONFIG = FleetConfig(
    num_pods=2, blocks_per_pod=27,
    horizon_seconds=1 * DAY, arrival_window_seconds=18 * HOUR,
    mean_interarrival_seconds=30 * MINUTE, mean_job_seconds=3 * HOUR,
    max_job_blocks=8, serving_fraction=0.1,
    host_mtbf_seconds=60 * DAY, mean_repair_seconds=2 * HOUR,
    serve_scenario="steady")


def _run(config, seed=0):
    return FleetSimulator(config, seed=seed).run(PlacementPolicy.OCS)


def _serve_json(report):
    return json.dumps({"summary": report.summary,
                       "serve": report.serve.summary,
                       "pools": report.serve.pools}, sort_keys=True)


class TestTraffic:
    def test_diurnal_trough_and_peak(self):
        model = ModelTraffic(name="m", peak_qps=100.0, replica_chips=16,
                             slo_seconds=1e-3, base_fraction=0.25,
                             phase_seconds=6 * HOUR)
        assert model.diurnal_qps(6 * HOUR) == pytest.approx(25.0)
        assert model.diurnal_qps(6 * HOUR + 0.5 * DAY) == \
            pytest.approx(100.0)
        # one full day later the curve repeats
        assert model.diurnal_qps(6 * HOUR + DAY) == pytest.approx(25.0)

    def test_surge_multiplies_inside_window_only(self):
        surge = SurgeWindow(start=100.0, end=200.0, multiplier=3.0)
        model = ModelTraffic(name="m", peak_qps=100.0, replica_chips=16,
                             slo_seconds=1e-3, surges=(surge,))
        assert model.qps_at(150.0) == \
            pytest.approx(3.0 * model.diurnal_qps(150.0))
        assert model.qps_at(99.0) == pytest.approx(model.diurnal_qps(99.0))
        assert model.qps_at(200.0) == \
            pytest.approx(model.diurnal_qps(200.0))  # end is exclusive
        assert model.peak_qps_with_surge == pytest.approx(300.0)

    @pytest.mark.parametrize("kwargs", [
        dict(peak_qps=0.0),
        dict(replica_chips=0),
        dict(slo_seconds=0.0),
        dict(base_fraction=0.0),
        dict(base_fraction=1.5),
    ])
    def test_bad_traffic_rejected(self, kwargs):
        base = dict(name="m", peak_qps=1.0, replica_chips=16,
                    slo_seconds=1e-3)
        with pytest.raises(ConfigurationError):
            ModelTraffic(**{**base, **kwargs})

    def test_bad_surge_rejected(self):
        with pytest.raises(ConfigurationError):
            SurgeWindow(start=10.0, end=10.0, multiplier=2.0)
        with pytest.raises(ConfigurationError):
            SurgeWindow(start=0.0, end=1.0, multiplier=0.0)


class TestScenarios:
    def test_names_registered(self):
        assert scenario_names() == ["steady", "surge"]

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="blizzard"):
            scenario_for("blizzard", SERVE_CONFIG)

    def test_surge_aligns_with_deploy_drain(self):
        # The launch spike opens exactly when deploy_week pulls the
        # first pod: 1/7 into the horizon.
        scenario = scenario_for("surge", SERVE_CONFIG)
        ads = next(m for m in scenario.models if m.name == "ads-dlrm")
        assert len(ads.surges) == 1
        assert ads.surges[0].start == \
            pytest.approx(SERVE_CONFIG.horizon_seconds / 7)
        assert ads.surges[0].multiplier == pytest.approx(3.0)


class TestAutoscalerPolicies:
    @pytest.fixture()
    def pool(self):
        model = ModelTraffic(name="m", peak_qps=1.0e7, replica_chips=16,
                             slo_seconds=1e-3)
        return ReplicaPool(model, horizon_seconds=DAY)

    def test_static_pins_surge_peak(self, pool):
        want = desired_replicas("static", pool, 0.0,
                                target_utilization=0.6, min_replicas=1,
                                lead_seconds=0.0)
        assert want == max(1, math.ceil(
            pool.traffic.peak_qps_with_surge / (0.6 * pool.replica_qps)))
        # static never moves with the clock
        assert want == desired_replicas(
            "static", pool, 0.6 * DAY, target_utilization=0.6,
            min_replicas=1, lead_seconds=0.0)

    def test_predictive_at_least_reactive_on_a_ramp(self, pool):
        # Climbing toward the peak, looking ahead can only ask for
        # more than looking at now.
        now = 0.25 * DAY
        kwargs = dict(target_utilization=0.6, min_replicas=1,
                      lead_seconds=HOUR)
        assert desired_replicas("predictive", pool, now, **kwargs) >= \
            desired_replicas("reactive", pool, now, **kwargs)

    def test_unknown_policy_rejected(self, pool):
        with pytest.raises(ConfigurationError, match="warp"):
            desired_replicas("warp", pool, 0.0, target_utilization=0.6,
                             min_replicas=1, lead_seconds=0.0)


#: Weights, bases and waits: zeros and spans from microseconds up.
_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
#: Waits may also be negative (no tail, as zero), and bases repeat.
_WAITS = st.one_of(_MAGNITUDES, st.floats(-1e3, -1e-6))
_BASES = st.one_of(_MAGNITUDES, st.sampled_from([1e-3, 2e-3]))


def _long_samples(seed, size):
    """`size` rows drawn from a numpy seed, so a long input stays a cheap
    draw: zero weights, repeated bases, and zero and negative waits."""
    rng = np.random.default_rng(seed)
    weights = rng.exponential(1e3, size) * (rng.random(size) > 0.1)
    if rng.random() < 0.5:
        bases = rng.choice(rng.uniform(1e-6, 1e-2, 8), size)
    else:
        bases = rng.uniform(1e-6, 1e-2, size)
    waits = rng.exponential(1e-3, size) * rng.choice(
        [-1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], size)
    return list(zip(weights.tolist(), bases.tolist(), waits.tolist()))


@functools.lru_cache(maxsize=None)
def _surge_report_calls():
    """The (samples, fraction) of each `_mixture_quantile` call of the
    serve report of `serve_surge` seed 0: both pools and their merge,
    each at p50 and p99."""
    calls = []

    def logged(samples, fraction):
        calls.append((list(samples), fraction))
        return _mixture_quantile(samples, fraction)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tier, "_mixture_quantile", logged)
        FleetSimulator(preset_config("serve_surge"), seed=0).run(
            PlacementPolicy.OCS)
    assert len(calls) == 6
    return tuple(calls)


def _full_bisection(samples, fraction):
    """`_mixture_quantile` with all 100 bisection steps, no early stop."""
    if not samples:
        return 0.0
    rows = np.asarray(samples, dtype=np.float64)
    weights, bases, waits = rows[:, 0], rows[:, 1], rows[:, 2]
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    lo = float(bases.min())
    hi = float((bases + np.maximum(waits, 0.0) * _TAIL_MEANS).max())
    safe_waits = np.where(waits > 0, waits, 1.0)

    def cdf(x):
        tail = np.where(x >= bases,
                        np.where(waits > 0,
                                 np.exp(-np.maximum(x - bases, 0.0)
                                        / safe_waits),
                                 0.0),
                        1.0)
        return float(weights @ (1.0 - tail)) / total

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMixtureQuantile:
    def test_empty_and_degenerate(self):
        assert _mixture_quantile([], 0.5) == 0.0
        # zero wait: every request takes exactly the base time
        assert _mixture_quantile([(10.0, 2.0, 0.0)], 0.99) == \
            pytest.approx(2.0, abs=1e-9)

    def test_matches_single_exponential_closed_form(self):
        base, wait = 1.0, 0.5
        for q in (0.5, 0.9, 0.99):
            expected = base - wait * math.log(1.0 - q)
            assert _mixture_quantile([(1.0, base, wait)], q) == \
                pytest.approx(expected, rel=1e-6)

    def test_p99_dominates_p50(self):
        samples = [(5.0, 1e-3, 2e-4), (1.0, 2e-3, 1e-3)]
        assert _mixture_quantile(samples, 0.99) > \
            _mixture_quantile(samples, 0.50)

    @settings(max_examples=300, deadline=None)
    @given(samples=st.one_of(
               st.lists(st.tuples(_MAGNITUDES, _BASES, _WAITS), max_size=8),
               st.builds(_long_samples, st.integers(0, 2**32 - 1),
                         st.integers(1, 4096))),
           fraction=st.one_of(st.sampled_from([0.5, 0.99]),
                              st.floats(0.0, 1.0)),
           surge_call=st.none())
    @example(samples=[], fraction=0.5, surge_call=None)
    @example(samples=[(0.0, 1.0, 2.0), (0.0, 3.0, 0.0)], fraction=0.99,
             surge_call=None)
    @example(samples=[(1.0, 1e-3, -2e-3), (2.0, 1e-3, 0.0),
                      (3.0, 1e-3, 1e-3)], fraction=0.5, surge_call=None)
    # The six report calls of a serve_surge run, in place of the draw.
    @example(samples=[], fraction=0.0, surge_call=0)
    @example(samples=[], fraction=0.0, surge_call=1)
    @example(samples=[], fraction=0.0, surge_call=2)
    @example(samples=[], fraction=0.0, surge_call=3)
    @example(samples=[], fraction=0.0, surge_call=4)
    @example(samples=[], fraction=0.0, surge_call=5)
    def test_early_stop_equals_the_full_bisection(self, samples, fraction,
                                                  surge_call):
        if surge_call is not None:
            samples, fraction = _surge_report_calls()[surge_call]
        assert _mixture_quantile(samples, fraction) == \
            _full_bisection(samples, fraction)


class TestStrictTierRun:
    @pytest.fixture(scope="class")
    def report(self):
        return _run(SERVE_CONFIG, seed=0)

    def test_serve_report_attached(self, report):
        serve = report.serve
        assert serve is not None
        assert serve.scenario == "steady"
        assert serve.autoscaler == "reactive"
        assert serve.summary["schema_version"] == float(SERVE_SCHEMA)
        assert set(serve.pools) == {"ads-dlrm", "search-ranker"}

    def test_slo_telemetry_present_and_sane(self, report):
        s = report.serve.summary
        assert s["requests_total"] > 0
        assert 0.0 < s["slo_attainment"] <= 1.0
        assert s["slo_violation_fraction"] == \
            pytest.approx(1.0 - s["slo_attainment"])
        assert 0.0 < s["p50_latency_seconds"] <= s["p99_latency_seconds"]
        assert s["serving_chip_seconds"] > 0
        assert s["slo_attainment_per_chip"] > 0

    def test_autoscaler_tracked_the_diurnal_curve(self, report):
        s = report.serve.summary
        assert s["scale_ups"] > 0 and s["scale_downs"] > 0
        assert s["replicas_peak"] > 2  # above the two-pool floor

    def test_reconciles_with_utilization_identity(self, report):
        assert reconciliation_residual(report) <= 1e-9

    def test_strict_double_run_byte_identical(self, report):
        again = _run(SERVE_CONFIG, seed=0)
        assert _serve_json(again) == _serve_json(report)

    def test_render_mentions_serving(self, report):
        text = report.render()
        assert "serving tier" in text
        assert "pool ads-dlrm" in text

    def test_no_scenario_no_serve_report(self):
        config = SERVE_CONFIG.with_overrides(serve_scenario="")
        assert _run(config, seed=0).serve is None


class TestSurgeAndComparison:
    @pytest.fixture(scope="class")
    def reports(self):
        config = SERVE_CONFIG.with_overrides(serve_scenario="surge")
        return compare_autoscalers(config, seed=0,
                                   autoscalers=("reactive", "static"))

    def test_reactive_scaled_into_the_surge(self, reports):
        ads = reports["reactive"].serve.pools["ads-dlrm"]
        assert ads["replicas_peak"] > ads["replicas_initial"]

    def test_autoscaling_beats_static_split_per_chip(self, reports):
        # The bench gate, scaled down: same traffic, same draws; the
        # peak-pinned static split burns chips all night and loses on
        # SLO-attained requests per chip-second.
        reactive = reports["reactive"].serve.summary
        static = reports["static"].serve.summary
        assert reactive["slo_attainment_per_chip"] > \
            static["slo_attainment_per_chip"]

    def test_static_never_scales(self, reports):
        s = reports["static"].serve.summary
        assert s["scale_downs"] == 0
        assert s["replicas_peak"] == \
            sum(p["replicas_initial"]
                for p in reports["static"].serve.pools.values())

    def test_both_tiers_reconcile(self, reports):
        for report in reports.values():
            assert reconciliation_residual(report) <= 1e-9

    def test_bench_gate_json_is_alone_on_stdout(self, monkeypatch, capsys):
        # The gate script with --json: stdout parses as the comparison,
        # and the status lines go to stderr.  Measured as committed, so
        # every gate line prints without four serve runs.
        path = Path(__file__).resolve().parent.parent / "benchmarks" / \
            "bench_serve_autoscale.py"
        spec = importlib.util.spec_from_file_location("bench_serve_gate",
                                                      path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        committed = json.loads(bench.COMPARISON_PATH.read_text())
        monkeypatch.setattr(bench, "measure",
                            lambda: committed["comparison"])
        assert bench.main(["--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == committed["comparison"]
        assert captured.err.count("serve gate: ") == 5


class TestValidation:
    def test_unknown_autoscaler_rejected_in_config(self):
        with pytest.raises(ConfigurationError, match="serve_autoscaler"):
            SERVE_CONFIG.with_overrides(serve_autoscaler="psychic")

    def test_unknown_scenario_rejected_at_run_time(self):
        config = SERVE_CONFIG.with_overrides(serve_scenario="blizzard")
        with pytest.raises(ConfigurationError, match="blizzard"):
            _run(config, seed=0)

    def test_all_autoscalers_registered(self):
        assert AUTOSCALERS == ("reactive", "predictive", "scheduled",
                               "static")
