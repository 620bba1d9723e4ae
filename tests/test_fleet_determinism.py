"""Determinism regression tests for fleet runs.

The contract from PR 1, now load-bearing for the policy/strategy
comparisons: every stochastic input derives from one integer seed
through independent RNG streams, so (a) the same preset+seed yields
byte-identical telemetry JSON across runs, and (b) every placement
policy and strategy replays the exact same job stream and failure
trace — the comparison measures the scheduler, never the dice.
"""

import hashlib
import json
import pathlib

import pytest

from repro.__main__ import main
from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.fleet import (FleetSimulator, compare_cross_pod,
                         compare_strategies, preset_config, run_fleet,
                         schedule_for)

STRATEGIES = [s.value for s in PlacementStrategy]
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _tiny(strategy):
    return preset_config("tiny").with_overrides(strategy=strategy)


class TestByteIdenticalRuns:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_summary_json_identical_across_runs(self, strategy):
        first = run_fleet(_tiny(strategy), seed=3)
        second = run_fleet(_tiny(strategy), seed=3)
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)
        assert first.events_fired == second.events_fired

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cli_json_bytes_identical(self, capsys, strategy):
        argv = ["fleet", "--preset", "tiny", "--seed", "2",
                "--policy", "ocs", "--strategy", strategy, "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_cli_strategy_sweep_bytes_identical(self, capsys):
        argv = ["fleet", "--preset", "tiny", "--seed", "1",
                "--strategy", "all", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert set(payload) == {"first_fit", "best_fit", "defrag"}


class TestSharedInputsAcrossChoices:
    def test_job_stream_and_trace_reproducible(self):
        config = preset_config("tiny")
        first = FleetSimulator(config, seed=5)
        second = FleetSimulator(config, seed=5)
        assert first.jobs == second.jobs
        assert first.trace == second.trace

    def test_strategy_choice_does_not_perturb_inputs(self):
        # The failures-own-RNG-stream contract: changing the placement
        # strategy replays the identical outage trace and job stream.
        reports = compare_strategies(preset_config("small"), seed=0)
        failures = {s["block_failures"] for s in
                    (r.summary for r in reports.values())}
        submitted = {s["jobs_submitted"] for s in
                     (r.summary for r in reports.values())}
        downtime = {r.downtime_fraction for r in reports.values()}
        assert len(failures) == 1
        assert len(submitted) == 1
        assert len(downtime) == 1

    def test_policy_choice_does_not_perturb_inputs(self):
        simulator = FleetSimulator(preset_config("tiny"), seed=4)
        ocs = simulator.run(PlacementPolicy.OCS)
        static = simulator.run(PlacementPolicy.STATIC)
        assert ocs.summary["block_failures"] == \
            static.summary["block_failures"]
        assert ocs.summary["jobs_submitted"] == \
            static.summary["jobs_submitted"]

    def test_rerun_on_one_simulator_is_stable(self):
        # Running twice off the same FleetSimulator instance must not
        # mutate shared inputs (the first run leaves no residue).
        simulator = FleetSimulator(preset_config("tiny"), seed=6)
        first = simulator.run(PlacementPolicy.OCS,
                              PlacementStrategy.DEFRAG)
        second = simulator.run(PlacementPolicy.OCS,
                               PlacementStrategy.DEFRAG)
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)


class TestStrategyReportLabels:
    def test_reports_carry_their_strategy(self):
        reports = compare_strategies(preset_config("tiny"), seed=0)
        for name, report in reports.items():
            assert report.strategy.value == name
            assert f"strategy={name}" in report.render()


class TestCrossPodDeterminism:
    def test_disabled_cross_pod_reproduces_pr2_medium_golden(self):
        # The machine-wide refactor's regression contract: with
        # cross-pod placement off, every metric the per-pod-only
        # scheduler (PR 2) produced on the medium strategy sweep is
        # reproduced bit for bit — the refactor added a layer, it did
        # not move a single placement.  The golden file is the actual
        # `fleet --preset medium --seed 0 --strategy all --json`
        # output captured at the PR 2 commit.
        golden = json.loads(
            (GOLDEN_DIR / "fleet_medium_seed0_pr2.json").read_text())
        config = preset_config("medium").with_overrides(cross_pod=False)
        reports = compare_strategies(config, seed=0)
        for name, summary in golden.items():
            for key, value in summary.items():
                assert reports[name].summary[key] == value, \
                    f"{name}.{key} drifted from PR 2"

    def test_enabled_cross_pod_is_a_noop_below_one_pod(self):
        # Medium's job mix never exceeds one pod, so enabling the
        # trunk layer must change nothing there either.
        enabled = run_fleet(preset_config("medium"), seed=0)
        disabled = run_fleet(
            preset_config("medium").with_overrides(cross_pod=False), seed=0)
        assert json.dumps(enabled.summary, sort_keys=True) == \
            json.dumps(disabled.summary, sort_keys=True)

    def test_cross_pod_ab_runs_identical_inputs(self):
        reports = compare_cross_pod(preset_config("large"), seed=0)
        on, off = reports["cross_pod"], reports["single_pod"]
        assert on.summary["jobs_submitted"] == \
            off.summary["jobs_submitted"]
        assert on.summary["block_failures"] == \
            off.summary["block_failures"]
        assert on.downtime_fraction == off.downtime_fraction

    def test_large_preset_byte_identical_across_runs(self):
        first = run_fleet(preset_config("large"), seed=7)
        second = run_fleet(preset_config("large"), seed=7)
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)
        assert first.events_fired == second.events_fired


class TestGoldenSummaryDigests:
    """100-seed byte-identity against digests committed before the
    vectorized event core landed.

    The performance work (numpy switch banks, persistent failure
    caches, layout memoization) is licensed by exactly one promise:
    *not one output bit moved*.  These digests are sha256 over the
    sorted summary JSON of seeds 0-99 on the CI smoke preset and the
    contention edge preset, recorded on the pre-optimization code, so
    any placement divergence anywhere in the stack fails here with the
    offending seed named.
    """

    @pytest.mark.parametrize("preset", ["small", "edge"])
    def test_summaries_match_committed_digests(self, preset):
        golden = json.loads(
            (GOLDEN_DIR / "fleet_summary_digests.json").read_text())
        assert golden["schema"] == 1
        expected = golden["presets"][preset]
        assert len(expected) == 100
        config = preset_config(preset)
        mismatched = []
        for seed_text, want in sorted(expected.items(),
                                      key=lambda kv: int(kv[0])):
            seed = int(seed_text)
            summary = FleetSimulator(config, seed=seed).run(
                PlacementPolicy.OCS).summary
            digest = hashlib.sha256(
                json.dumps(summary, sort_keys=True).encode()).hexdigest()
            if digest != want["sha256"]:
                mismatched.append(
                    f"seed {seed}: goodput {summary['goodput']} "
                    f"(recorded {want['goodput']})")
        assert not mismatched, \
            f"{preset} summaries diverged from the recorded " \
            f"pre-optimization runs: {mismatched}"


class _VerifyMode:
    """Sets the run's verification mode before its first event.

    The scheduler is built inside ``FleetSimulator.run``; the profiler
    hook is the one place a caller can reach it before the run starts.
    """

    run_seconds = 0.0

    def __init__(self, on):
        self.on = on
        self.scheduler = None

    def install(self, scheduler, sim):
        scheduler.verify_invariants = self.on
        self.scheduler = scheduler


class TestVerificationModeOracle:
    """Programmed vs priced fabric: the pod switch banks are state no
    output reads, so switching verification mode off — which stops
    programming them — must not move a single output byte."""

    @staticmethod
    def _runs(preset):
        config = preset_config(preset)
        windows = schedule_for(config.deploy_schedule, config).windows \
            if config.deploy_schedule else ()
        simulator = FleetSimulator(config, seed=0, windows=windows)
        runs = {}
        for on in (True, False):
            hook = _VerifyMode(on)
            runs[on] = (simulator.run(PlacementPolicy.OCS, profiler=hook),
                        hook.scheduler)
        return runs

    @pytest.mark.parametrize("preset", ["large", "hyperscale", "edge"])
    def test_summary_identical_with_verification_on_and_off(self, preset):
        runs = self._runs(preset)
        assert json.dumps(runs[True][0].summary, sort_keys=True) == \
            json.dumps(runs[False][0].summary, sort_keys=True)
        # The modes really differ in what they program: jobs still
        # running at the horizon hold pod circuits only when verifying.
        live = {on: sum(pod.fabric.bank.total_circuits
                        for pod in scheduler.state.pods)
                for on, (_, scheduler) in runs.items()}
        assert live[True] > 0
        assert live[False] == 0

    def test_serve_json_identical_with_verification_on_and_off(self):
        runs = self._runs("serve_surge")
        serve = {on: json.dumps({"summary": report.summary,
                                 "serve": report.serve.summary,
                                 "pools": report.serve.pools},
                                sort_keys=True)
                 for on, (report, _) in runs.items()}
        assert serve[True] == serve[False]
