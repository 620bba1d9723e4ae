"""End-to-end fleet simulator tests: determinism, policy gap, invariants."""

import pytest

from repro.core.checkpoint import (CheckpointParams, goodput_fraction,
                                   optimal_interval)
from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError
from repro.fleet import (FleetConfig, FleetSimulator, compare_policies,
                         preset_config, preset_names, run_fleet)
from repro.fleet.workload import PRIORITY_PROD, FleetJob, TraceWorkload
from repro.units import DAY, HOUR


@pytest.fixture(scope="module")
def tiny_reports():
    return compare_policies(preset_config("tiny"), seed=0)


class TestPresets:
    def test_names(self):
        assert "tiny" in preset_names()
        assert "small" in preset_names()

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset_config("galactic")


class TestDeterminism:
    def test_same_seed_identical_telemetry(self):
        first = run_fleet(preset_config("tiny"), seed=7)
        second = run_fleet(preset_config("tiny"), seed=7)
        assert first.summary == second.summary
        assert first.events_fired == second.events_fired

    def test_distinct_seeds_distinct_arrival_traces(self):
        config = preset_config("tiny")
        trace_a = [(j.arrival, j.shape)
                   for j in FleetSimulator(config, seed=0).jobs]
        trace_b = [(j.arrival, j.shape)
                   for j in FleetSimulator(config, seed=1).jobs]
        assert trace_a != trace_b

    def test_distinct_seeds_distinct_failure_traces(self):
        config = preset_config("tiny")
        outages_a = FleetSimulator(config, seed=0).trace
        outages_b = FleetSimulator(config, seed=1).trace
        assert [(o.start, o.block_id) for o in outages_a] != \
            [(o.start, o.block_id) for o in outages_b]

    def test_policies_share_inputs(self):
        simulator = FleetSimulator(preset_config("tiny"), seed=0)
        ocs = simulator.run(PlacementPolicy.OCS)
        static = simulator.run(PlacementPolicy.STATIC)
        # Identical offered work and identical outage trace.
        assert ocs.summary["jobs_submitted"] == \
            static.summary["jobs_submitted"]
        assert ocs.summary["block_failures"] == \
            static.summary["block_failures"]
        assert ocs.downtime_fraction == static.downtime_fraction


class TestPolicyGap:
    def test_ocs_beats_static_goodput(self, tiny_reports):
        """Figure 4's qualitative claim at fleet scale."""
        assert tiny_reports["ocs"].summary["goodput"] > \
            tiny_reports["static"].summary["goodput"]

    def test_ocs_waits_no_longer(self, tiny_reports):
        assert tiny_reports["ocs"].summary["mean_queue_wait"] <= \
            tiny_reports["static"].summary["mean_queue_wait"]

    def test_ocs_utilization_at_least_static(self):
        """Section 2.5: any-blocks placement increases utilization."""
        for seed in (0, 1, 2):
            reports = compare_policies(preset_config("tiny"), seed=seed)
            assert reports["ocs"].summary["utilization"] >= \
                reports["static"].summary["utilization"], seed


class TestFiftyDayRun:
    """The abstract's 50-day training run as one fleet job: 48 blocks
    (768 hosts) with 50 days of work on a 64-block pod, 2 h repairs."""

    @pytest.fixture(scope="class", params=[0, 1, 2])
    def availability(self, request):
        """The job's useful seconds over its wall time, by policy."""
        config = FleetConfig(num_pods=1, blocks_per_pod=64,
                             mean_repair_seconds=2 * HOUR,
                             horizon_seconds=100 * DAY)
        job = FleetJob(job_id=0, kind="train", model_type="Transformer",
                       shape=(12, 16, 16), arrival=0.0,
                       work_seconds=50 * DAY, priority=PRIORITY_PROD)
        simulator = FleetSimulator(config, seed=request.param,
                                   workload=TraceWorkload((job,)))
        availability = {}
        for policy in PlacementPolicy:
            (record,) = simulator.run(policy).job_records
            availability[policy.value] = record.useful_seconds / (
                record.completed_at - record.arrival)
        return availability

    def test_ocs_matches_young_daly(self, availability):
        """With any healthy blocks to restart on, the job loses only
        checkpoint writes, replay and restores: the closed form."""
        params = CheckpointParams(num_hosts=768)
        assert availability["ocs"] == pytest.approx(
            goodput_fraction(optimal_interval(params), params), abs=0.02)

    def test_ocs_beats_static(self, availability):
        assert availability["ocs"] > availability["static"]


class TestInvariants:
    @pytest.mark.parametrize("policy", ["ocs", "static"])
    def test_accounting(self, tiny_reports, policy):
        summary = tiny_reports[policy].summary
        assert 0.0 < summary["goodput"] <= summary["utilization"] <= 1.0
        assert summary["jobs_completed"] + summary["jobs_unfinished"] == \
            summary["jobs_submitted"]
        lost = summary["replay_fraction"] + summary["restore_fraction"] + \
            summary["checkpoint_fraction"] + summary["reconfig_fraction"]
        assert summary["goodput"] + lost == \
            pytest.approx(summary["utilization"], abs=1e-9)

    def test_reconfiguration_charged_only_under_ocs(self, tiny_reports):
        assert tiny_reports["ocs"].summary["reconfig_fraction"] > 0.0
        assert tiny_reports["ocs"].summary["ocs_reconfigurations"] > 0
        assert tiny_reports["static"].summary["reconfig_fraction"] == 0.0
        assert tiny_reports["static"].summary["ocs_reconfigurations"] == 0

    def test_render_mentions_headlines(self, tiny_reports):
        text = tiny_reports["ocs"].render()
        assert "goodput" in text
        assert "queue wait" in text
        assert "policy=ocs" in text

    def test_failures_observed(self, tiny_reports):
        assert tiny_reports["ocs"].summary["block_failures"] > 0
        assert tiny_reports["ocs"].summary["job_interruptions"] > 0


class TestAccountingIdentities:
    """Per-seed identities on the OCS policy, beyond the tiny preset."""

    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_job_conservation(self, preset):
        summary = FleetSimulator(preset_config(preset), seed=0).run(
            PlacementPolicy.OCS).summary
        assert summary["jobs_completed"] + summary["jobs_unfinished"] == \
            summary["jobs_submitted"]
        assert summary["jobs_never_ran"] <= summary["jobs_unfinished"]

    def test_fractions_bounded(self):
        summary = FleetSimulator(preset_config("small"), seed=0).run(
            PlacementPolicy.OCS).summary
        for key in ("goodput", "utilization", "checkpoint_fraction",
                    "cross_pod_fraction", "drain_fraction",
                    "reconfig_fraction", "replay_fraction",
                    "restore_fraction", "trunk_stall_fraction",
                    "trunk_utilization"):
            assert 0.0 <= summary[key] <= 1.0, key

    def test_does_real_work(self):
        summary = FleetSimulator(preset_config("small"), seed=0).run(
            PlacementPolicy.OCS).summary
        assert summary["jobs_completed"] > 0
        assert summary["goodput"] > 0
