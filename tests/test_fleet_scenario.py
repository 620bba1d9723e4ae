"""Deployment-scenario tests: schedules, drain overlay, OCS-vs-static.

The multi-day story: rollout drains are planned, policy-independent
inputs (like failure traces), merged into the block down/up event
sequence so overlapping holes never double-fire, charged through the
existing utilization identity, and — the paper's claim — handled
strictly better by reconfigurable placement than by static wiring.
"""

import json

import pytest

from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError
from repro.fleet import (BlockOutage, DrainWindow, FleetSimulator,
                         compare_deployment, drained_block_seconds,
                         incremental_rollout, overlay_windows,
                         preset_config, rolling_maintenance,
                         schedule_for, schedule_names, spare_repair_count)

IDENTITY_PARTS = ("goodput", "replay_fraction", "restore_fraction",
                  "checkpoint_fraction", "reconfig_fraction")


class TestOverlayWindows:
    def test_no_windows_returns_trace_unchanged(self):
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=2.0)]
        assert overlay_windows(outages, ()) is outages

    def test_disjoint_intervals_stay_separate(self):
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=2.0)]
        windows = [DrainWindow(pod_id=0, block_id=0, start=5.0, end=6.0)]
        merged = overlay_windows(outages, windows)
        assert [(o.start, o.end) for o in merged] == [(1.0, 2.0),
                                                      (5.0, 6.0)]

    def test_overlapping_intervals_coalesce(self):
        # A drain overlapping an outage must produce ONE down/up pair,
        # not interleaved ups that revive a block still drained.
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=4.0)]
        windows = [DrainWindow(pod_id=0, block_id=0, start=3.0, end=9.0)]
        merged = overlay_windows(outages, windows)
        assert [(o.start, o.end) for o in merged] == [(1.0, 9.0)]
        assert merged[0].via_spare is False

    def test_containment_and_touching_coalesce(self):
        outages = [BlockOutage(pod_id=0, block_id=0, start=2.0, end=3.0)]
        windows = [DrainWindow(pod_id=0, block_id=0, start=1.0, end=5.0),
                   DrainWindow(pod_id=0, block_id=0, start=5.0, end=7.0)]
        merged = overlay_windows(outages, windows)
        assert [(o.start, o.end) for o in merged] == [(1.0, 7.0)]

    def test_untouched_spare_repair_keeps_flag(self):
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=2.0,
                               via_spare=True)]
        windows = [DrainWindow(pod_id=0, block_id=1, start=1.0, end=2.0)]
        merged = overlay_windows(outages, windows)
        spare = [o for o in merged if o.block_id == 0]
        assert spare == outages

    def test_blocks_and_pods_kept_apart(self):
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=3.0)]
        windows = [DrainWindow(pod_id=1, block_id=0, start=2.0, end=4.0)]
        merged = overlay_windows(outages, windows)
        assert len(merged) == 2
        assert {(o.pod_id, o.block_id) for o in merged} == {(0, 0), (1, 0)}

    def test_output_sorted_by_start_pod_block(self):
        outages = [BlockOutage(pod_id=1, block_id=5, start=7.0, end=8.0)]
        windows = [DrainWindow(pod_id=0, block_id=2, start=1.0, end=2.0),
                   DrainWindow(pod_id=1, block_id=0, start=1.0, end=2.0)]
        merged = overlay_windows(outages, windows)
        keys = [(o.start, o.pod_id, o.block_id) for o in merged]
        assert keys == sorted(keys)

    def test_empty_window_dropped(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=3.0, end=3.0)]
        assert overlay_windows([], windows) == []

    def test_drain_swallowed_spare_repair_not_counted(self):
        # A spare-port repair inside a drain window no longer bounds
        # any downtime, so the merged trace must not report it.
        outages = [BlockOutage(pod_id=0, block_id=0, start=1.0, end=2.0,
                               via_spare=True)]
        windows = [DrainWindow(pod_id=0, block_id=0, start=0.5, end=5.0)]
        merged = overlay_windows(outages, windows)
        assert spare_repair_count(merged) == 0
        assert spare_repair_count(overlay_windows(outages, ())) == 1


class TestScheduleBuilders:
    def test_registry_names(self):
        assert "deploy_week" in schedule_names()
        assert "maintenance" in schedule_names()

    def test_unknown_schedule_raises(self):
        with pytest.raises(ConfigurationError, match="unknown deployment"):
            schedule_for("yolo_rollout", preset_config("tiny"))

    def test_deploy_week_shape(self):
        config = preset_config("deploy_week")
        schedule = schedule_for("deploy_week", config)
        assert schedule.pods_touched == 2
        assert len(schedule.windows) == 2 * config.blocks_per_pod
        horizon = config.horizon_seconds
        for window in schedule.windows:
            assert 0 <= window.start < window.end <= horizon
        # Windows are materialized sorted, the trace-schema order.
        keys = [(w.start, w.pod_id, w.block_id) for w in schedule.windows]
        assert keys == sorted(keys)

    def test_deploy_week_single_pod_fleet(self):
        schedule = schedule_for("deploy_week", preset_config("tiny"))
        assert schedule.pods_touched == 1

    def test_deploy_week_deterministic(self):
        config = preset_config("deploy_week")
        assert schedule_for("deploy_week", config) == \
            schedule_for("deploy_week", config)

    def test_maintenance_touches_every_block(self):
        config = preset_config("small")
        schedule = schedule_for("maintenance", config)
        assert len(schedule.windows) == config.total_blocks
        assert schedule.pods_touched == config.num_pods
        assert schedule.drain_block_seconds > 0

    def test_incremental_rollout_pull_past_horizon_is_empty(self):
        config = preset_config("tiny")
        schedule = incremental_rollout(
            config, [(0, config.horizon_seconds + 1.0)])
        assert schedule.windows == ()

    def test_incremental_rollout_bad_pod_raises(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            incremental_rollout(preset_config("tiny"), [(9, 0.0)])

    def test_incremental_rollout_negative_pull_raises(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            incremental_rollout(preset_config("tiny"), [(0, -1.0)])

    def test_rolling_maintenance_validates_knobs(self):
        with pytest.raises(ConfigurationError):
            rolling_maintenance(preset_config("tiny"), drain_seconds=0)
        with pytest.raises(ConfigurationError):
            rolling_maintenance(preset_config("tiny"), span_fraction=1.5)


class TestDrainedBlockSeconds:
    def test_disjoint_windows_sum(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=0.0, end=10.0),
                   DrainWindow(pod_id=0, block_id=0, start=20.0, end=25.0)]
        assert drained_block_seconds(windows, 100.0) == 15.0

    def test_overlapping_windows_on_one_block_count_once(self):
        # A block is either drained or not: the overlap region
        # [5, 10) must not be billed twice.
        windows = [DrainWindow(pod_id=0, block_id=0, start=0.0, end=10.0),
                   DrainWindow(pod_id=0, block_id=0, start=5.0, end=15.0)]
        assert drained_block_seconds(windows, 100.0) == 15.0

    def test_duplicate_windows_count_once(self):
        window = DrainWindow(pod_id=1, block_id=2, start=3.0, end=9.0)
        assert drained_block_seconds([window, window], 100.0) == 6.0

    def test_same_interval_on_different_blocks_both_count(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=0.0, end=10.0),
                   DrainWindow(pod_id=0, block_id=1, start=0.0, end=10.0),
                   DrainWindow(pod_id=1, block_id=0, start=0.0, end=10.0)]
        assert drained_block_seconds(windows, 100.0) == 30.0

    def test_horizon_spanning_window_clamped(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=90.0,
                               end=250.0)]
        assert drained_block_seconds(windows, 100.0) == 10.0

    def test_window_beyond_horizon_contributes_nothing(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=150.0,
                               end=250.0),
                   DrainWindow(pod_id=0, block_id=1, start=5.0, end=5.0)]
        assert drained_block_seconds(windows, 100.0) == 0.0

    def test_touching_windows_coalesce(self):
        windows = [DrainWindow(pod_id=0, block_id=0, start=0.0, end=5.0),
                   DrainWindow(pod_id=0, block_id=0, start=5.0, end=9.0)]
        assert drained_block_seconds(windows, 100.0) == 9.0

    def test_no_windows(self):
        assert drained_block_seconds((), 100.0) == 0.0


class TestScenarioRuns:
    def test_windows_do_not_perturb_inputs(self):
        # Drains are an overlay: the job stream and failure trace are
        # the same dice with or without the schedule.
        config = preset_config("tiny")
        schedule = schedule_for("deploy_week", config)
        plain = FleetSimulator(config, seed=0)
        drained = FleetSimulator(config, seed=0,
                                 windows=schedule.windows)
        assert plain.jobs == drained.jobs
        assert plain.trace == drained.trace

    def test_drain_fraction_zero_without_windows(self):
        report = FleetSimulator(preset_config("tiny"), seed=0).run(
            PlacementPolicy.OCS)
        assert report.drain_fraction == 0.0
        assert report.summary["drain_fraction"] == 0.0

    def test_drain_fraction_positive_with_windows(self):
        config = preset_config("tiny")
        schedule = schedule_for("deploy_week", config)
        report = FleetSimulator(config, seed=0, windows=schedule.windows).run(
            PlacementPolicy.OCS)
        assert report.drain_fraction > 0
        assert report.summary["drain_fraction"] == report.drain_fraction
        # The drained capacity shows up as lost machine time.
        assert report.downtime_fraction >= report.drain_fraction * 0.5

    def test_overlapping_drains_do_not_double_count(self):
        # Regression: drain_fraction used to sum windows independently,
        # so two overlapping pulls of the same block (a rollout
        # re-draining a block already out for maintenance) billed the
        # overlap twice.  The union is what actually left service.
        config = preset_config("tiny")
        horizon = config.horizon_seconds
        windows = (
            DrainWindow(pod_id=0, block_id=0, start=0.0,
                        end=horizon / 2),
            DrainWindow(pod_id=0, block_id=0, start=horizon / 4,
                        end=3 * horizon / 4),
        )
        report = FleetSimulator(config, seed=0, windows=windows).run(
            PlacementPolicy.OCS)
        capacity = config.total_blocks * horizon
        assert report.summary["drain_fraction"] == pytest.approx(
            (3 * horizon / 4) / capacity)

    def test_drain_fraction_never_exceeds_one(self):
        # Every block drained for the whole horizon, and every window
        # listed twice: the fraction is exactly the drained capacity
        # share (1.0), not 2.0.
        config = preset_config("tiny")
        horizon = config.horizon_seconds
        windows = [DrainWindow(pod_id=0, block_id=block, start=0.0,
                               end=horizon)
                   for block in range(config.blocks_per_pod)] * 2
        report = FleetSimulator(config, seed=0, windows=windows).run(
            PlacementPolicy.OCS)
        assert report.summary["drain_fraction"] == pytest.approx(1.0)
        assert report.drain_fraction <= 1.0

    def test_outage_coincident_drain_counts_drain_once(self):
        # A drain window coinciding with an outage on the same block:
        # the overlay merges them into one down interval for the event
        # stream, and drain_fraction still bills exactly the window's
        # union — the outage neither adds to nor subtracts from it.
        config = preset_config("tiny")
        horizon = config.horizon_seconds
        outage = BlockOutage(pod_id=0, block_id=0, start=1000.0,
                             end=5000.0)
        windows = (
            DrainWindow(pod_id=0, block_id=0, start=1000.0, end=5000.0),
            DrainWindow(pod_id=0, block_id=0, start=2000.0, end=6000.0),
        )
        report = FleetSimulator(config, seed=0, failure_trace=[outage],
                                windows=windows).run(PlacementPolicy.OCS)
        capacity = config.total_blocks * horizon
        assert report.summary["drain_fraction"] == pytest.approx(
            5000.0 / capacity)

    def test_identity_holds_under_overlapping_drains(self):
        # The accounting identity survives the messiest schedule shape:
        # overlapping windows merged with real outages.
        config = preset_config("tiny")
        windows = (
            DrainWindow(pod_id=0, block_id=3, start=0.0, end=40000.0),
            DrainWindow(pod_id=0, block_id=3, start=20000.0, end=60000.0),
            DrainWindow(pod_id=0, block_id=4, start=10000.0, end=30000.0),
        )
        for policy in (PlacementPolicy.OCS, PlacementPolicy.STATIC):
            summary = FleetSimulator(config, seed=0,
                                     windows=windows).run(policy).summary
            parts = sum(summary[key] for key in IDENTITY_PARTS)
            assert abs(summary["utilization"] - parts) < 1e-9

    def test_identity_holds_under_drains(self):
        config = preset_config("tiny")
        schedule = schedule_for("maintenance", config)
        for policy in (PlacementPolicy.OCS, PlacementPolicy.STATIC):
            summary = FleetSimulator(
                config, seed=0, windows=schedule.windows).run(policy).summary
            parts = sum(summary[key] for key in IDENTITY_PARTS)
            assert abs(summary["utilization"] - parts) < 1e-9

    def test_ocs_beats_static_under_drain_schedule(self):
        # The acceptance claim at test scale: same drain schedule, OCS
        # goodput strictly above static.
        config = preset_config("small")
        reports = compare_deployment(config, seed=0)
        ocs, static = reports["ocs"].summary, reports["static"].summary
        assert ocs["drain_fraction"] == static["drain_fraction"] > 0
        assert ocs["block_failures"] == static["block_failures"]
        assert ocs["goodput"] > static["goodput"]

    def test_scenario_runs_are_deterministic(self):
        config = preset_config("tiny")
        schedule = schedule_for("deploy_week", config)
        first = FleetSimulator(config, seed=1, windows=schedule.windows).run(
            PlacementPolicy.OCS)
        second = FleetSimulator(config, seed=1, windows=schedule.windows).run(
            PlacementPolicy.OCS)
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)

    def test_compare_deployment_uses_config_schedule(self):
        config = preset_config("tiny").with_overrides(
            deploy_schedule="maintenance")
        reports = compare_deployment(config, seed=0)
        expected = schedule_for("maintenance", config)
        capacity = config.total_blocks * config.horizon_seconds
        assert reports["ocs"].drain_fraction == pytest.approx(
            expected.drain_block_seconds / capacity)

    def test_deploy_schedule_config_field_validated(self):
        with pytest.raises(ConfigurationError, match="deploy_schedule"):
            preset_config("tiny").with_overrides(deploy_schedule=3)

    def test_render_mentions_deployment_only_when_drained(self):
        config = preset_config("tiny")
        schedule = schedule_for("deploy_week", config)
        drained = FleetSimulator(config, seed=0, windows=schedule.windows).run(
            PlacementPolicy.OCS)
        plain = FleetSimulator(config, seed=0).run(PlacementPolicy.OCS)
        assert "deployment:" in drained.render()
        assert "deployment:" not in plain.render()
