"""Tests for the `python -m repro` command-line interface."""

import argparse
import json
import re

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure6" in out and "table3" in out and "fleet" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        ids = json.loads(capsys.readouterr().out)
        assert isinstance(ids, list)
        assert "figure6" in ids and "fleet" in ids

    def test_run_single(self, capsys):
        assert main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "TPU v4" in out
        assert "paper vs measured" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table1", "section76"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "section76" in out

    def test_help(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_help_word(self, capsys):
        assert main(["help"]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_dash_h_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_run_without_target(self):
        assert main(["run"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    @staticmethod
    def _assert_unknown_id(argv, unknown, capsys):
        """Exit 2 and one stderr line naming the id, before any run."""
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("run: unknown experiment "), argv
        assert captured.err.count("\n") == 1, argv
        assert repr(unknown) in captured.err, argv

    def test_unknown_experiment_raises(self, capsys):
        # The CLI's form of the library's ConfigurationError: a usage
        # error, checked for every id before the first one runs.
        for argv in (["run", "figure99"], ["run", "table4", "figure99"]):
            self._assert_unknown_id(argv, "figure99", capsys)

    def test_all_mixed_with_ids_is_not_expanded(self, capsys):
        # 'all' is only magic as the sole target; mixed in with real
        # ids it is an unknown experiment, not a silent full run.
        self._assert_unknown_id(["run", "table4", "all"], "all", capsys)


class TestFleetCLI:
    def test_unknown_preset(self):
        assert main(["fleet", "--preset", "galactic"]) == 2

    def test_negative_seed_is_usage_error(self):
        assert main(["fleet", "--preset", "tiny", "--seed", "-1"]) == 2

    def test_fleet_single_policy(self, capsys):
        assert main(["fleet", "--preset", "tiny", "--seed", "0",
                     "--policy", "ocs"]) == 0
        out = capsys.readouterr().out
        assert "policy=ocs" in out
        assert "goodput" in out

    def test_fleet_both_policies_json(self, capsys):
        assert main(["fleet", "--preset", "tiny", "--seed", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ocs", "static"}
        # Exit code 0 already asserts the Figure 4 qualitative claim:
        assert payload["ocs"]["goodput"] > payload["static"]["goodput"]

    def test_fleet_unknown_mode_is_usage_error(self):
        assert main(["fleet", "rewind"]) == 2

    def test_cross_pod_preemption_flag_round_trip(self, capsys):
        # The A/B pair: identical inputs, only the contention knob
        # differs; disabling must zero the new counters.
        argv = ["fleet", "--preset", "edge", "--seed", "0",
                "--policy", "ocs", "--json"]
        assert main(argv + ["--cross-pod-preemption"]) == 0
        enabled = json.loads(capsys.readouterr().out)["ocs"]
        assert main(argv + ["--no-cross-pod-preemption"]) == 0
        disabled = json.loads(capsys.readouterr().out)["ocs"]
        assert enabled["cross_pod_preemptions"] > 0
        assert disabled["cross_pod_preemptions"] == 0.0
        assert disabled["trunk_freeing_migrations"] == 0.0
        assert enabled["jobs_submitted"] == disabled["jobs_submitted"]
        assert enabled["block_failures"] == disabled["block_failures"]


class TestFleetTraceCLI:
    def test_record_then_replay_stdout_byte_identical(self, tmp_path,
                                                      capsys):
        trace_path = str(tmp_path / "run.jsonl")
        argv_tail = ["--trace", trace_path, "--json"]
        assert main(["fleet", "record", "--preset", "tiny", "--seed",
                     "0"] + argv_tail) == 0
        captured = capsys.readouterr()
        recorded = captured.out
        assert "recorded" in captured.err  # the note rides on stderr
        assert main(["fleet", "replay"] + argv_tail) == 0
        assert capsys.readouterr().out == recorded

    def test_record_writes_loadable_trace(self, tmp_path, capsys):
        from repro.fleet import load_trace
        trace_path = tmp_path / "run.jsonl"
        assert main(["fleet", "record", "--preset", "tiny",
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        trace = load_trace(trace_path)
        assert trace.seed == 0
        assert len(trace.jobs) > 0

    def test_record_requires_trace_path(self, capsys):
        assert main(["fleet", "record", "--preset", "tiny"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_replay_requires_trace_path(self, capsys):
        assert main(["fleet", "replay"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_replay_rejects_preset_and_seed(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["fleet", "record", "--preset", "tiny",
                     "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["fleet", "replay", "--trace", trace_path,
                     "--preset", "tiny"]) == 2
        assert main(["fleet", "replay", "--trace", trace_path,
                     "--seed", "1"]) == 2

    def test_replay_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["fleet", "replay", "--trace",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_replay_malformed_trace_fails_cleanly(self, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "job"}\n')
        assert main(["fleet", "replay", "--trace", str(bad)]) == 2
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key,literal,named", [
        (0, "num_pods", "1" + "0" * 400,
         "trace line 1: invalid config: num_pods must be "),
        (1, "arrival", "1" + "0" * 400,
         "trace line 2: arrival must be finite"),
        (1, "arrival", "1" + "0" * 4300,
         "trace line 2: arrival is an integer of more than "),
        (1, "arrival", "[" * 100_000 + "]" * 100_000,
         "trace line 2: nested too deeply to read"),
    ], ids=["config-int-past-float-range", "arrival-past-float-range",
            "overlong-integer-literal", "nesting-past-recursion-limit"])
    def test_replay_hostile_number_fails_cleanly(self, tmp_path, capsys,
                                                 line, key, literal,
                                                 named):
        trace_path = tmp_path / "run.jsonl"
        assert main(["fleet", "record", "--preset", "tiny",
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        lines = trace_path.read_text().splitlines()
        lines[line], edits = re.subn(rf'"{key}": [^,}}]+',
                                     f'"{key}": {literal}', lines[line],
                                     count=1)
        assert edits == 1
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["fleet", "replay", "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert named in captured.err

    def test_replay_honors_policy_flag(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["fleet", "record", "--preset", "tiny",
                     "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["fleet", "replay", "--trace", trace_path,
                     "--policy", "ocs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ocs"}

    def test_deploy_schedule_flag_drains_capacity(self, capsys):
        assert main(["fleet", "--preset", "tiny", "--policy", "ocs",
                     "--deploy-schedule", "maintenance",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ocs"]["drain_fraction"] > 0

    def test_deploy_schedule_none_disables_presets(self, capsys):
        assert main(["fleet", "--preset", "tiny", "--policy", "ocs",
                     "--deploy-schedule", "none", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ocs"]["drain_fraction"] == 0

    def test_recorded_schedule_replays_drains(self, tmp_path, capsys):
        trace_path = str(tmp_path / "drained.jsonl")
        assert main(["fleet", "record", "--preset", "tiny",
                     "--deploy-schedule", "maintenance",
                     "--trace", trace_path, "--policy", "ocs",
                     "--json"]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert recorded["ocs"]["drain_fraction"] > 0
        # Replay needs no schedule registry: windows ride in the trace.
        assert main(["fleet", "replay", "--trace", trace_path,
                     "--policy", "ocs", "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == recorded


class TestFleetObsCLI:
    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        import json as _json
        from repro.fleet.obs import load_obs, validate_chrome_trace
        trace_path = tmp_path / "obs.json"
        assert main(["fleet", "--preset", "tiny", "--seed", "0",
                     "--policy", "ocs", "--trace-out",
                     str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert "wrote observability trace" in captured.err
        validate_chrome_trace(_json.loads(trace_path.read_text()))
        recorder = load_obs(trace_path)
        assert recorder.spans and recorder.decisions

    def test_trace_out_stdout_stays_byte_identical(self, tmp_path,
                                                   capsys):
        # The export note rides stderr precisely so a traced run's
        # stdout matches an untraced one byte for byte.
        argv = ["fleet", "--preset", "tiny", "--seed", "0",
                "--policy", "ocs", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace-out",
                            str(tmp_path / "obs.jsonl")]) == 0
        assert capsys.readouterr().out == plain

    def test_trace_out_rejects_multi_run_modes(self, capsys):
        assert main(["fleet", "--preset", "tiny", "--policy", "both",
                     "--trace-out", "/tmp/never.json"]) == 2
        assert "one run" in capsys.readouterr().err
        assert main(["fleet", "--preset", "tiny", "--policy", "ocs",
                     "--strategy", "all",
                     "--trace-out", "/tmp/never.json"]) == 2
        assert "one run" in capsys.readouterr().err

    def test_report_requires_trace_path(self, capsys):
        assert main(["fleet", "report"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["fleet", "report", "--trace",
                     str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_rejects_negative_limit(self, tmp_path, capsys):
        from repro.fleet.obs import ObsRecorder, save_obs
        trace_path = save_obs(ObsRecorder(), tmp_path / "obs.jsonl")
        assert main(["fleet", "report", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["fleet", "report", "--trace", str(trace_path),
                     "--limit", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err
        assert captured.err.count("\n") == 1

    def test_report_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "obs.jsonl")
        assert main(["fleet", "--preset", "edge", "--seed", "0",
                     "--policy", "ocs", "--trace-out", trace_path]) == 0
        capsys.readouterr()
        assert main(["fleet", "report", "--trace", trace_path,
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "placement attempts" in out
        # The acceptance bar: at least one non-placed cause surfaces.
        assert "top rejection causes" in out

    def test_profile_renders_phase_table(self, capsys):
        assert main(["fleet", "profile", "--preset", "tiny",
                     "--seed", "0", "--policy", "ocs"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-loop profile" in out
        assert "placement_scoring" in out
        assert "goodput" in out  # the fleet report still renders

    def test_profile_json(self, capsys):
        assert main(["fleet", "profile", "--preset", "tiny",
                     "--seed", "0", "--policy", "ocs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["phases"]["dispatch_total"]["calls"] > 0
        assert payload["summary"]["goodput"] > 0

    def test_profile_repeat_best_of_n(self, capsys):
        assert main(["fleet", "profile", "--preset", "tiny",
                     "--repeat", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repeat"] == 2
        assert payload["profile"]["run_seconds"] > 0

    def test_profile_repeat_rejects_nonpositive(self, capsys):
        assert main(["fleet", "profile", "--preset", "tiny",
                     "--repeat", "0"]) == 2
        assert "--repeat >= 1" in capsys.readouterr().err


class TestFleetPathErrors:
    """A path the CLI cannot read or write ends in exit 2 and one
    stderr line naming it, whether it is read before the run or
    written after it."""

    @pytest.mark.parametrize("argv,named", [
        (["fleet", "replay", "--trace", "{dir}"], "{dir}"),
        (["fleet", "report", "--trace", "{dir}"], "{dir}"),
        (["fleet", "replay", "--trace", "{binary}"], "{binary}"),
        (["fleet", "report", "--trace", "{binary}"], "{binary}"),
        (["fleet", "record", "--preset", "tiny", "--trace",
          "{missing}/t.jsonl"], "{missing}/t.jsonl"),
        (["fleet", "run", "--preset", "tiny", "--policy", "ocs",
          "--trace-out", "{missing}/o.json"], "{missing}/o.json"),
        (["fleet", "replay", "--trace", "{trace}", "--policy", "ocs",
          "--trace-out", "{missing}/o.json"], "{missing}/o.json"),
        (["fleet", "profile", "--preset", "tiny", "--trace-out",
          "{missing}/o.json"], "{missing}/o.json"),
    ], ids=["replay-directory", "report-directory", "replay-non-utf8",
            "report-non-utf8", "record-missing-dir", "run-trace-out",
            "replay-trace-out", "profile-trace-out"])
    def test_exit_two_with_one_stderr_line(self, tmp_path, capsys, argv,
                                           named):
        from repro.fleet import preset_config, record_trace, save_trace
        paths = {"dir": tmp_path, "binary": tmp_path / "binary.jsonl",
                 "missing": tmp_path / "missing",
                 "trace": tmp_path / "run.jsonl"}
        paths["binary"].write_bytes(b"\xff\xfe")
        save_trace(record_trace(preset_config("tiny"), seed=0),
                   paths["trace"])
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet")
        assert captured.err.count("\n") == 1
        assert named.format(**paths) in captured.err


class TestFleetFlagMatrix:
    """The shared-parent contract: one flag, one definition, everywhere.

    `--preset/--seed/--strategy/--json` (and the rest of
    the knobs parent) must parse to identical values under every fleet
    subcommand that accepts them, and be rejected outright by the
    modes that don't.
    """

    SHARED = ["--preset", "tiny", "--seed", "3", "--strategy",
              "best_fit", "--json",
              "--reconfig-seconds", "45", "--trunk-ports", "8",
              "--no-cross-pod", "--deploy-schedule", "none",
              "--sample-every", "600"]
    SHARED_DESTS = ["preset", "seed", "strategy", "json",
                    "reconfig_seconds", "trunk_ports", "cross_pod",
                    "deploy_schedule", "sample_every"]

    def _parse(self, argv):
        from repro.__main__ import build_parser
        return build_parser().parse_args(argv)

    def test_shared_flags_parse_identically_across_modes(self):
        extra = {"run": [], "record": ["--trace", "t.jsonl"],
                 "profile": [], "sweep": [], "serve": []}
        parsed = {
            mode: self._parse(["fleet", mode] + self.SHARED + tail)
            for mode, tail in extra.items()}
        baseline = {dest: getattr(parsed["run"], dest)
                    for dest in self.SHARED_DESTS}
        assert baseline["seed"] == 3
        assert baseline["strategy"] == "best_fit"
        assert baseline["cross_pod"] is False
        for mode, namespace in parsed.items():
            got = {dest: getattr(namespace, dest)
                   for dest in self.SHARED_DESTS}
            assert got == baseline, mode

    def test_bare_fleet_defaults_to_run_mode(self):
        from repro.__main__ import main
        # `fleet --preset tiny ...` == `fleet run --preset tiny ...`
        assert main(["fleet", "--preset", "tiny", "--policy", "ocs",
                     "--json"]) == 0

    @pytest.mark.parametrize("argv", [
        ["fleet", "replay", "--trace", "t.jsonl", "--preset", "tiny"],
        ["fleet", "replay", "--trace", "t.jsonl", "--seed", "1"],
        ["fleet", "report", "--trace", "t.jsonl", "--preset", "tiny"],
        ["fleet", "report", "--trace", "t.jsonl", "--json"],
        ["fleet", "sweep", "--seed", "1"],
        ["fleet", "run", "--seeds", "4"],
        ["fleet", "run", "--autoscaler", "reactive"],
        ["fleet", "serve", "--policy", "both"],
        ["fleet", "serve", "--trace-out", "x.json"],
        ["fleet", "lint", "--preset", "tiny"],
        ["fleet", "lint", "--seed", "1"],
        ["fleet", "lint", "--policy", "both"],
        ["fleet", "lint", "--strategy", "best_fit"],
    ])
    def test_unsupported_combinations_rejected(self, argv):
        from repro.__main__ import main
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["fleet", "run", "--reconfig-seconds", "nan", "--json"],
        ["fleet", "run", "--sample-every", "inf"],
        ["fleet", "run", "--trunk-ports", "-1"],
        ["fleet", "sweep", "--seeds", "1", "--trunk-ports", "-1"],
    ])
    def test_invalid_flag_values_exit_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet: ")
        assert captured.err.count("\n") == 1

    @staticmethod
    def _replay_with_config(tmp_path, capsys, key, value):
        """Exit code of replaying a tiny trace whose header config has
        `key` set to `value`; stdout and stderr are left to read."""
        trace_path = tmp_path / "run.jsonl"
        assert main(["fleet", "record", "--preset", "tiny", "--trace",
                     str(trace_path), "--policy", "ocs"]) == 0
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"][key] = value
        trace_path.write_text("\n".join([json.dumps(header), *lines[1:]])
                              + "\n")
        capsys.readouterr()
        return main(["fleet", "replay", "--trace", str(trace_path)])

    def test_replay_of_non_finite_header_exits_two(self, tmp_path,
                                                   capsys):
        assert self._replay_with_config(tmp_path, capsys,
                                        "horizon_seconds",
                                        float("nan")) == 2
        assert "horizon_seconds" in capsys.readouterr().err

    def test_replay_of_unknown_serve_scenario_exits_two(self, tmp_path,
                                                        capsys):
        assert self._replay_with_config(tmp_path, capsys,
                                        "serve_scenario", "bogus") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet replay: trace line 1: ")
        assert captured.err.count("\n") == 1
        assert "'bogus'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["fleet", "run", "--preset", "tiny", "--policy", "ocs"],
        ["fleet", "record", "--preset", "tiny", "--policy", "ocs",
         "--trace", "{written}"],
        ["fleet", "replay", "--trace", "{trace}", "--policy", "ocs"],
        ["fleet", "profile", "--preset", "tiny"],
    ], ids=["run", "record", "replay", "profile"])
    def test_sample_cadence_over_tick_cap_exits_two(self, tmp_path,
                                                    capsys, argv):
        # tiny's 1-day horizon at 0.5 s needs 172,800 sampler ticks,
        # over the cap; the run must stop before it writes any file.
        from repro.fleet import preset_config, record_trace, save_trace
        paths = {"trace": tmp_path / "run.jsonl",
                 "written": tmp_path / "new.jsonl"}
        save_trace(record_trace(preset_config("tiny"), seed=0),
                   paths["trace"])
        obs_path = tmp_path / "obs.json"
        assert main([arg.format(**paths) for arg in argv] +
                    ["--sample-every", "0.5",
                     "--trace-out", str(obs_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet: sample cadence 0.5s ")
        assert captured.err.count("\n") == 1
        assert not paths["written"].exists()
        assert not obs_path.exists()

    def test_every_mode_has_a_subparser(self):
        from repro.__main__ import build_parser

        def subcommands(parser):
            return next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        fleet = subcommands(build_parser())["fleet"]
        assert tuple(subcommands(fleet)) == (
            "run", "record", "replay", "report", "profile", "sweep",
            "serve", "lint")

    def test_serve_quickstart(self, capsys):
        from repro.__main__ import main
        # The README quickstart, shrunk to the test preset: one
        # serving run, JSON out, serve telemetry attached.
        assert main(["fleet", "serve", "--preset", "serve_surge",
                     "--seed", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serve"]["requests_total"] > 0
        assert "slo_attainment_per_chip" in payload["serve"]
        assert "ads-dlrm" in payload["pools"]

    def test_serve_rejects_presets_without_scenario(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "serve", "--preset", "tiny"]) == 2
        assert "no serving scenario" in capsys.readouterr().err

    def test_serve_autoscaler_flag_round_trip(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "serve", "--preset", "serve_surge",
                     "--autoscaler", "static", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serve"]["scale_downs"] == 0


class TestFleetLintCLI:
    """`fleet lint` rows of the CLI contract: shared --json, stable
    exit codes (0 clean / 1 findings / 2 usage), path arguments."""

    def _clean_file(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("VALUES = [1, 2, 3]\n"
                          "TOTAL = sum(VALUES)\n")
        return target

    def _dirty_file(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import time\n"
                          "STAMP = time.time()\n")
        return target

    def test_clean_target_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fleet", "lint", str(self._clean_file(tmp_path))]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fleet", "lint", str(self._dirty_file(tmp_path))]) == 1
        assert "D002" in capsys.readouterr().out

    def test_json_flag_shared_shape(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fleet", "lint", "--json",
                     str(self._dirty_file(tmp_path))]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.detlint"
        assert payload["counts"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "D002"

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fleet", "lint", "--rules", "D999",
                     str(self._clean_file(tmp_path))]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fleet", "lint", str(tmp_path / "absent.py")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_rules_filter_narrows_the_run(self, tmp_path, capsys):
        from repro.__main__ import main
        # The D002 hazard is invisible to a D001-only run.
        assert main(["fleet", "lint", "--rules", "D001",
                     str(self._dirty_file(tmp_path))]) == 0
