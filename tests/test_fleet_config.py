"""Tests for fleet configuration validation."""

import dataclasses
import time

import pytest

from repro.core.scheduler import PlacementStrategy
from repro.errors import ConfigurationError
from repro.fleet.config import MAX_EXPECTED_EVENTS, FleetConfig
from repro.fleet.presets import PRESETS, preset_config
from repro.fleet.simulator import FleetSimulator

FLOAT_FIELDS = [spec.name for spec in dataclasses.fields(FleetConfig)
                if spec.type == "float"]
NUMERIC_FIELDS = [spec.name for spec in dataclasses.fields(FleetConfig)
                  if spec.type in ("int", "float")]


class TestValidation:
    def test_defaults_valid(self):
        config = FleetConfig()
        assert config.total_blocks == 128
        assert config.block_mtbf_seconds == \
            pytest.approx(config.host_mtbf_seconds / 16)

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(blocks_per_pod=60),   # not a cube
                     id="blocks_per_pod=60"),
        pytest.param(dict(num_pods=0), id="num_pods=0"),
        pytest.param(dict(horizon_seconds=0.0), id="horizon_seconds=0.0"),
        pytest.param(dict(arrival_window_seconds=3 * 86400.0),
                     id="arrival_window_seconds=3*86400.0"),  # > horizon
        pytest.param(dict(mean_interarrival_seconds=0.0),
                     id="mean_interarrival_seconds=0.0"),
        pytest.param(dict(serving_fraction=1.5), id="serving_fraction=1.5"),
        pytest.param(dict(max_job_blocks=0), id="max_job_blocks=0"),
        pytest.param(dict(max_job_blocks=129),  # over the machine, not a pod
                     id="max_job_blocks=129"),
        pytest.param(dict(host_mtbf_seconds=0.0),
                     id="host_mtbf_seconds=0.0"),
        pytest.param(dict(mean_repair_seconds=-1.0),
                     id="mean_repair_seconds=-1.0"),
        pytest.param(dict(checkpoint_seconds=0.0),
                     id="checkpoint_seconds=0.0"),
        pytest.param(dict(restore_seconds=-100.0),
                     id="restore_seconds=-100.0"),
        pytest.param(dict(serving_qps=0.0), id="serving_qps=0.0"),
        pytest.param(dict(mean_serving_seconds=0.0),
                     id="mean_serving_seconds=0.0"),
        pytest.param(dict(trunk_ports=-1), id="trunk_ports=-1"),
        pytest.param(dict(trunk_bandwidth_tax=-0.1),
                     id="trunk_bandwidth_tax=-0.1"),
        pytest.param(dict(trunk_reconfig_seconds=-1.0),
                     id="trunk_reconfig_seconds=-1.0"),
        pytest.param(dict(spare_ports=-1), id="spare_ports=-1"),
        pytest.param(dict(optical_failure_fraction=1.5),
                     id="optical_failure_fraction=1.5"),
        pytest.param(dict(port_repair_seconds=-1.0),
                     id="port_repair_seconds=-1.0"),
        pytest.param(dict(spare_ports=137),  # more than a whole Palomar switch
                     id="spare_ports=137"),
        pytest.param(dict(spare_ports=10**9), id="spare_ports=10**9"),
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            FleetConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        *(pytest.param({name: value}, id=f"{name}={value}")
          for name in FLOAT_FIELDS for value in (float("nan"), float("inf"))),
        pytest.param(dict(num_pods=2.5), id="num_pods=2.5"),
        pytest.param(dict(num_pods="2"), id="num_pods='2'"),
        pytest.param(dict(trunk_ports=True), id="trunk_ports=True"),
        # An int past float range overflows the first float it meets.
        *(pytest.param({name: 10**400}, id=f"{name}=10**400")
          for name in NUMERIC_FIELDS),
        # A negative number's cube root is complex.
        pytest.param(dict(blocks_per_pod=-8), id="blocks_per_pod=-8"),
    ])
    def test_hostile_value_is_a_typed_error_at_once(self, overrides):
        # Past the constructor, a NaN or infinite float hangs the event
        # loop or fails deep inside a run, and range checks compare a
        # wrong type without complaint.
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match=next(iter(overrides))):
            preset_config("small").with_overrides(**overrides)
        assert time.perf_counter() - start < 1.0

    def test_zero_serving_fraction_skips_qps_check(self):
        config = FleetConfig(serving_fraction=0.0, serving_qps=0.0)
        assert config.serving_fraction == 0.0

    def test_machine_wide_jobs_allowed_past_one_pod(self):
        # Demand above one pod is legal machine-wide; the flag flips.
        config = FleetConfig(max_job_blocks=96)
        assert config.machine_wide_jobs
        assert not FleetConfig(max_job_blocks=64).machine_wide_jobs
        assert config.trunk_capacity == \
            config.num_pods * config.trunk_ports


class TestExpectedEventCap:
    """Both input streams are drawn in full at set-up, so a rate that
    expects more than MAX_EXPECTED_EVENTS arrivals or outages is turned
    away at construction instead of hanging set-up."""

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(mean_interarrival_seconds=1e-3),
                     id="interarrival=1e-3"),
        pytest.param(dict(mean_interarrival_seconds=5e-324),
                     id="interarrival=subnormal"),
        pytest.param(dict(host_mtbf_seconds=1e-3, mean_repair_seconds=1e-3),
                     id="mtbf=repair=1e-3"),
        pytest.param(dict(host_mtbf_seconds=5e-324),
                     id="mtbf=subnormal"),
        pytest.param(dict(horizon_seconds=1e12, arrival_window_seconds=1e12),
                     id="horizon=window=1e12"),
        pytest.param(dict(num_pods=10**6), id="pods=1e6"),
    ])
    def test_extreme_rate_is_a_typed_error_at_once(self, overrides):
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="cap"):
            FleetSimulator(preset_config("tiny").with_overrides(**overrides))
        assert time.perf_counter() - start < 1.0

    def test_at_the_cap_constructs_and_past_it_does_not(self):
        at_cap = dict(horizon_seconds=float(MAX_EXPECTED_EVENTS),
                      arrival_window_seconds=float(MAX_EXPECTED_EVENTS),
                      mean_interarrival_seconds=1.0)
        preset_config("tiny").with_overrides(**at_cap)
        with pytest.raises(ConfigurationError, match="job arrivals"):
            preset_config("tiny").with_overrides(
                **{**at_cap, "mean_interarrival_seconds": 0.5})

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_sit_far_under_the_cap(self, name):
        config = preset_config(name)
        arrivals = config.arrival_window_seconds / \
            config.mean_interarrival_seconds
        outages = config.total_blocks * config.horizon_seconds / \
            config.block_mtbf_seconds
        assert max(arrivals, outages) * 500 < MAX_EXPECTED_EVENTS


class TestDictRoundTrip:
    """to_dict/from_dict: the lossless serialization contract."""

    def test_every_preset_round_trips_byte_identical(self):
        import json

        from repro.fleet.presets import PRESETS
        for name, config in PRESETS.items():
            payload = config.to_dict()
            rebuilt = FleetConfig.from_dict(payload)
            assert rebuilt == config, name
            assert json.dumps(payload, sort_keys=True) == \
                json.dumps(rebuilt.to_dict(), sort_keys=True), name

    def test_to_dict_is_json_safe(self):
        import json
        payload = FleetConfig().to_dict()
        json.dumps(payload)  # no enums, no dataclasses
        assert payload["strategy"] == "first_fit"
        assert all(isinstance(v, (int, float, bool, str))
                   for v in payload.values())

    def test_from_dict_rejects_unknown_keys(self):
        payload = FleetConfig().to_dict()
        payload["flux_capacitor"] = 1.21
        with pytest.raises(ConfigurationError, match="flux_capacitor"):
            FleetConfig.from_dict(payload)

    def test_from_dict_revalidates(self):
        payload = FleetConfig().to_dict()
        payload["num_pods"] = 0
        with pytest.raises(ConfigurationError):
            FleetConfig.from_dict(payload)


class TestWithOverrides:
    """The public spelling of dataclasses.replace for this config."""

    def test_applies_and_revalidates(self):
        config = FleetConfig().with_overrides(num_pods=4,
                                              strategy="best_fit")
        assert config.num_pods == 4
        assert config.strategy is PlacementStrategy.BEST_FIT
        # the original is untouched (configs are immutable copies)
        assert FleetConfig().num_pods == 2

    def test_no_overrides_returns_self(self):
        config = FleetConfig()
        assert config.with_overrides() is config

    def test_unknown_field_rejected_with_name(self):
        with pytest.raises(ConfigurationError, match="warp_factor"):
            FleetConfig().with_overrides(warp_factor=9)

    def test_invalid_combination_rejected(self):
        # with_overrides re-runs __post_init__: an arrival window that
        # outlives the horizon cannot be smuggled in via the copy path.
        with pytest.raises(ConfigurationError, match="arrival window"):
            FleetConfig().with_overrides(horizon_seconds=3600.0,
                                         arrival_window_seconds=7200.0)


class TestFacade:
    """repro.fleet.__all__ is the curated public API."""

    def test_every_facade_name_resolves(self):
        import repro.fleet as fleet
        for name in fleet.__all__:
            assert getattr(fleet, name, None) is not None, name

    def test_facade_covers_the_public_surface(self):
        import repro.fleet as fleet
        expected = {
            "FleetConfig",
            "FleetSimulator", "FleetReport", "run_fleet",
            "PRESETS", "preset_config", "preset_names",
            "SCHEDULES", "schedule_for", "schedule_names",
            "compare_policies", "compare_strategies",
            "compare_preemption", "compare_cross_pod",
            "compare_deployment", "compare_autoscalers",
            "run_sweep", "sweep_mean", "SweepResult",
            "record_trace", "save_trace", "load_trace", "trace_of",
            "AUTOSCALERS", "SCENARIOS", "SERVE_SCHEMA", "ModelTraffic",
            "ReplicaPool", "ServeReport", "ServeScenario", "ServingTier",
            "SurgeWindow", "reconciliation_residual", "scenario_for",
            "scenario_names",
        }
        assert set(fleet.__all__) == expected

    def test_deep_imports_still_work(self):
        # The facade curates; it does not wall off the modules.
        from repro.fleet.machine import plan_price
        from repro.fleet.obs import ObsRecorder
        from repro.fleet.scheduler import FleetScheduler
        from repro.fleet.serve.tier import ServingTier
        from repro.fleet.trace import validate_trace
        for obj in (plan_price, ObsRecorder, FleetScheduler, ServingTier,
                    validate_trace):
            assert callable(obj)
