"""Tests for the multi-seed sweep runner and the hyperscale preset.

The sweep's contract: each seed's summary is byte-identical to a
single in-process run of the same config — regardless of worker count
or start order — and results always come back sorted by seed, so sweep
output is as deterministic as the runs it aggregates.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError
from repro.fleet import (FleetSimulator, SweepResult, preset_config,
                         run_sweep, schedule_for, sweep_mean)


def _summary_json(result):
    return json.dumps(result.summary, sort_keys=True)


class TestRunSweep:
    def test_matches_single_runs_and_sorts_by_seed(self):
        results = run_sweep("tiny", [2, 0, 1], processes=1)
        assert [result.seed for result in results] == [0, 1, 2]
        for result in results:
            solo = FleetSimulator(preset_config("tiny"),
                                  seed=result.seed).run(
                                      PlacementPolicy.OCS)
            assert _summary_json(result) == json.dumps(solo.summary,
                                                       sort_keys=True)

    def test_pool_matches_inline(self):
        inline = run_sweep("tiny", range(3), processes=1)
        pooled = run_sweep("tiny", range(3), processes=3)
        assert [_summary_json(r) for r in inline] == \
            [_summary_json(r) for r in pooled]

    def test_oversized_process_count_clamps(self):
        # More workers than seeds must behave exactly like a right-sized
        # pool (the clamp) and like the inline path for one worker.
        inline = run_sweep("tiny", [0, 1], processes=1)
        clamped = run_sweep("tiny", [0, 1], processes=64)
        assert [_summary_json(r) for r in inline] == \
            [_summary_json(r) for r in clamped]

    def test_sweep_matches_solo_run(self):
        # A config object with the default policy sweeps to exactly the
        # summary of one in-process OCS run of the same config.
        config = preset_config("tiny")
        swept = run_sweep(config, [0], processes=1)[0]
        solo = FleetSimulator(config, seed=0).run(PlacementPolicy.OCS)
        assert _summary_json(swept) == json.dumps(solo.summary,
                                                  sort_keys=True)

    def test_accepts_config_and_policy(self):
        config = preset_config("tiny")
        results = run_sweep(config, [0], policy=PlacementPolicy.STATIC,
                            processes=1)
        solo = FleetSimulator(config, seed=0).run(PlacementPolicy.STATIC)
        assert _summary_json(results[0]) == json.dumps(solo.summary,
                                                       sort_keys=True)

    def test_deploy_schedule_applies_inside_workers(self):
        # A preset carrying a deploy_schedule must sweep with its drain
        # windows overlaid, exactly as the CLI runs it.
        config = preset_config("tiny").with_overrides(
            deploy_schedule="deploy_week")
        result = run_sweep(config, [0], processes=1)[0]
        windows = schedule_for("deploy_week", config).windows
        solo = FleetSimulator(config, seed=0, windows=windows).run(
            PlacementPolicy.OCS)
        assert result.summary["drain_fraction"] > 0
        assert _summary_json(result) == json.dumps(solo.summary,
                                                   sort_keys=True)

    def test_rejects_bad_seed_lists(self):
        with pytest.raises(ConfigurationError):
            run_sweep("tiny", [])
        with pytest.raises(ConfigurationError):
            run_sweep("tiny", [0, 1, 0])
        with pytest.raises(ConfigurationError):
            run_sweep("tiny", [-1])

    def test_rejects_bad_process_count(self):
        with pytest.raises(ConfigurationError, match="processes"):
            run_sweep("tiny", [0], processes=0)

    def test_unknown_preset_rejected_before_forking(self):
        with pytest.raises(ConfigurationError):
            run_sweep("no_such_preset", [0])


class TestSweepMean:
    def test_mean_over_seeds(self):
        results = [SweepResult(seed=0, summary={"goodput": 0.5,
                                                "jobs": 10.0}),
                   SweepResult(seed=1, summary={"goodput": 0.7,
                                                "jobs": 20.0})]
        mean = sweep_mean(results)
        assert mean == {"goodput": pytest.approx(0.6), "jobs": 15.0}

    def test_empty_ensemble(self):
        assert sweep_mean([]) == {}


class TestSweepCli:
    def test_json_output(self, capsys):
        assert main(["fleet", "sweep", "--preset", "tiny", "--seeds", "2",
                     "--processes", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [0, 1]
        assert set(payload["per_seed"]) == {"0", "1"}
        assert payload["policy"] == "ocs"
        goodputs = [payload["per_seed"][key]["goodput"]
                    for key in ("0", "1")]
        assert payload["mean"]["goodput"] == pytest.approx(
            sum(goodputs) / 2)

    def test_human_output(self, capsys):
        assert main(["fleet", "sweep", "--preset", "tiny", "--seeds", "2",
                     "--processes", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet sweep:" in out
        assert "seed 1:" in out
        assert "mean:" in out

    def test_rejects_bad_usage(self, capsys):
        assert main(["fleet", "sweep", "--preset", "tiny",
                     "--seeds", "0"]) == 2
        assert main(["fleet", "sweep", "--preset", "tiny",
                     "--strategy", "all"]) == 2
        for processes in ("0", "-3"):
            capsys.readouterr()
            assert main(["fleet", "sweep", "--preset", "tiny",
                         "--processes", processes]) == 2
            assert capsys.readouterr().err.count("\n") == 1


class TestHyperscalePreset:
    def test_scale_floor(self):
        config = preset_config("hyperscale")
        assert config.num_pods >= 64
        assert config.cross_pod
        assert config.trunk_ports > 0
        # Machine-wide jobs must exist: the biggest shape cannot fit
        # one pod, so the trunk layer is load-bearing at this scale.
        assert config.max_job_blocks > config.blocks_per_pod

    def test_run_is_deterministic(self):
        # Two short replicas of the 64-pod scenario agree byte-for-byte
        # (full-horizon smoke lives in CI; unit tests stay fast).
        config = preset_config("hyperscale").with_overrides(
            horizon_seconds=6 * 3600.0,
            arrival_window_seconds=4 * 3600.0)
        first = FleetSimulator(config, seed=0).run(PlacementPolicy.OCS)
        second = FleetSimulator(config, seed=0).run(PlacementPolicy.OCS)
        assert json.dumps(first.summary, sort_keys=True) == \
            json.dumps(second.summary, sort_keys=True)
        assert first.summary["jobs_submitted"] > 0
