"""Command-line entry point: run paper experiments and fleet simulations.

    python -m repro list [--json]
    python -m repro run figure6
    python -m repro run all
    python -m repro fleet --preset small --seed 0
    python -m repro fleet run --preset medium --strategy best_fit
    python -m repro fleet run --preset medium --strategy all --json
    python -m repro fleet run --preset large --policy ocs --cross-pod
    python -m repro fleet run --preset large --policy ocs --no-cross-pod
    python -m repro fleet run --preset edge --no-cross-pod-preemption
    python -m repro fleet run --preset deploy_week          # drain overlay
    python -m repro fleet run --preset small --deploy-schedule maintenance
    python -m repro fleet record --preset replay --seed 0 --trace run.jsonl
    python -m repro fleet replay --trace run.jsonl --json
    python -m repro fleet run --preset edge --policy ocs --trace-out e.json
    python -m repro fleet report --trace e.json
    python -m repro fleet profile --preset large --policy ocs
    python -m repro fleet profile --preset large --repeat 5
    python -m repro fleet sweep --preset hyperscale --seeds 16 --json
    python -m repro fleet serve --preset serve_surge --autoscaler reactive
    python -m repro fleet serve --autoscaler static --json
    python -m repro fleet lint                       # lint src/repro
    python -m repro fleet lint --json src/repro/fleet
    python -m repro fleet lint --rules D001,D003 src/repro

The `fleet` subcommands share their flag surface through common parent
parsers: `--preset/--seed` mean the same thing everywhere they are
accepted, the per-run knob overrides (`--strategy`, `--cross-pod`,
`--trunk-ports`, ...) parse identically across run/record/replay/
profile/sweep/serve, and flags a mode cannot honor are rejected by its
parser instead of being silently ignored (`fleet replay --preset ...`
and `fleet sweep --seed ...` are usage errors).  A bare `fleet` with
no mode keyword still means `fleet run`.
"""

from __future__ import annotations

import argparse
import json
import sys

from pathlib import Path

import repro
from repro.analysis import (AnalysisError, EXIT_CLEAN, EXIT_FINDINGS,
                            EXIT_USAGE, run_lint)
from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.errors import ConfigurationError, TraceError
from repro.experiments import list_experiments, run
from repro.fleet import (FleetSimulator, preset_config, preset_names,
                         run_sweep, schedule_for, schedule_names,
                         sweep_mean)
from repro.fleet.obs import (DispatchProfiler, MetricsSampler, ObsRecorder,
                             load_obs, render_report, save_obs)
from repro.fleet.serve import AUTOSCALERS, scenario_names
from repro.fleet.trace import load_trace, save_trace, trace_of

def _cmd_list(args: argparse.Namespace) -> int:
    experiments = list_experiments()
    if args.json:
        print(json.dumps(experiments, sort_keys=True))
    else:
        for experiment_id in experiments:
            print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    known = list_experiments()
    targets = known if args.experiments == ["all"] else args.experiments
    # Checked before any run, so a typo never follows a long report.
    unknown = [target for target in targets if target not in known]
    if unknown:
        print(f"run: unknown experiment {', '.join(map(repr, unknown))}; "
              f"have {', '.join(known)}", file=sys.stderr)
        return 2
    for target in targets:
        print(run(target).render())
        print()
    return 0


def _apply_fleet_overrides(config, args: argparse.Namespace):
    """Per-run knob overrides shared by every fleet subcommand.

    Reads only flags the calling subparser defined (getattr-guarded
    for the serve-only ones), folding them onto the preset via
    :meth:`~repro.fleet.config.FleetConfig.with_overrides`.
    """
    overrides: dict = {}
    if args.reconfig_seconds is not None:
        overrides["reconfig_base_seconds"] = args.reconfig_seconds
    if args.trunk_ports is not None:
        overrides["trunk_ports"] = args.trunk_ports
    if args.cross_pod is not None:
        overrides["cross_pod"] = args.cross_pod
    if args.cross_pod_preemption is not None:
        overrides["cross_pod_preemption"] = args.cross_pod_preemption
    if args.strategy not in (None, "all"):
        overrides["strategy"] = PlacementStrategy(args.strategy)
    if args.sample_every is not None:
        overrides["obs_sample_every_seconds"] = args.sample_every
    if getattr(args, "scenario", None) is not None:
        overrides["serve_scenario"] = args.scenario
    if getattr(args, "autoscaler", None) is not None:
        overrides["serve_autoscaler"] = args.autoscaler
    return config.with_overrides(**overrides) if overrides else config


def _save(save, payload, path: str) -> Path | None:
    """Write `payload` with `save`; None after reporting an OSError."""
    try:
        return save(payload, path)
    except OSError as exc:
        print(f"fleet: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return None


def _fleet_simulator(args: argparse.Namespace) -> FleetSimulator | int:
    """Build the run's simulator, or return an exit code on bad usage.

    `run`, `record`, `profile`, and `serve` draw fresh inputs from the
    preset + seed and overlay the deployment schedule named by
    `--deploy-schedule` (or the config's own `deploy_schedule`);
    `replay` takes everything — config, seed, jobs, outages, drain
    windows — from the trace file, so its stdout can be byte-diffed
    against the recorded run's.
    """
    if args.mode == "replay":
        try:
            trace = load_trace(args.trace)
        except TraceError as exc:
            print(f"fleet replay: {exc}", file=sys.stderr)
            return 2
        base = trace.config
    else:
        base = preset_config(args.preset if args.preset is not None
                             else "small")
    try:
        config = _apply_fleet_overrides(base, args)
        if args.trace_out is not None:
            MetricsSampler.check_cadence(config.obs_sample_every_seconds,
                                         config.horizon_seconds)
    except ConfigurationError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    if args.mode == "replay":
        windows = None  # the trace's own windows
        if args.deploy_schedule is not None:
            windows = () if args.deploy_schedule == "none" else \
                schedule_for(args.deploy_schedule, config).windows
        return FleetSimulator.from_trace(trace, config=config,
                                         windows=windows)
    schedule_name = args.deploy_schedule if args.deploy_schedule is not None \
        else (config.deploy_schedule or "none")
    windows = () if schedule_name == "none" else \
        schedule_for(schedule_name, config).windows
    simulator = FleetSimulator(
        config, seed=args.seed if args.seed is not None else 0,
        windows=windows)
    if args.mode == "record":
        trace = trace_of(simulator)
        path = _save(save_trace, trace, args.trace)
        if path is None:
            return 2
        # stderr, so record/replay stdout stays byte-comparable.
        print(f"fleet: recorded {trace.num_records} trace records to "
              f"{path}", file=sys.stderr)
    return simulator


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    """Render a recorded observability trace (either export format)."""
    if args.limit < 0:
        print(f"fleet report needs --limit >= 0, got {args.limit}",
              file=sys.stderr)
        return 2
    try:
        recorder = load_obs(args.trace)
    except TraceError as exc:
        print(f"fleet report: {exc}", file=sys.stderr)
        return 2
    print(render_report(recorder, limit=args.limit))
    return 0


def _cmd_fleet_profile(args: argparse.Namespace) -> int:
    """Instrumented run(s): the fleet report plus the wall-clock profile.

    `--repeat N` runs the identical simulation N times and keeps the
    fastest run's profile (best-of-N) — the standard way to strip
    scheduler noise and cold caches out of a wall-clock comparison.
    Every repeat is deterministic, so the reports are interchangeable;
    only the host timings differ.
    """
    if args.repeat < 1:
        print(f"fleet profile needs --repeat >= 1, got {args.repeat}",
              file=sys.stderr)
        return 2
    simulator = _fleet_simulator(args)
    if isinstance(simulator, int):
        return simulator
    # 'both' makes no sense for a profile; default to the OCS policy
    # (the one with a dispatch loop worth profiling).
    policy = PlacementPolicy.OCS if args.policy == "both" \
        else PlacementPolicy(args.policy)
    report = profiler = None
    for _ in range(args.repeat):
        candidate = DispatchProfiler()
        candidate_report = simulator.run(
            policy, profiler=candidate,
            recorder=ObsRecorder() if args.trace_out is not None else None)
        if profiler is None or candidate.run_seconds < profiler.run_seconds:
            report, profiler = candidate_report, candidate
    if args.trace_out is not None:
        path = _save(save_obs, report.obs, args.trace_out)
        if path is None:
            return 2
        print(f"fleet: wrote observability trace "
              f"({report.obs.num_records} records) to {path}",
              file=sys.stderr)
    if args.json:
        print(json.dumps({"summary": report.summary,
                          "repeat": args.repeat,
                          "profile": profiler.report()},
                         indent=2, sort_keys=True))
    else:
        print(report.render())
        print()
        if args.repeat > 1:
            print(f"best of {args.repeat} runs:")
        print(profiler.render())
    return 0


def _cmd_fleet_sweep(args: argparse.Namespace) -> int:
    """Fan one preset across seeds 0..N-1 on worker processes."""
    if args.seed is not None:
        print("fleet sweep runs seeds 0..N-1; use --seeds N, not "
              "--seed", file=sys.stderr)
        return 2
    if args.strategy == "all":
        print("fleet sweep runs one strategy; pick it explicitly or "
              "drop --strategy for the preset's", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print(f"fleet sweep needs --seeds >= 1, got {args.seeds}",
              file=sys.stderr)
        return 2
    if args.processes is not None and args.processes < 1:
        print(f"fleet sweep needs --processes >= 1, got {args.processes}",
              file=sys.stderr)
        return 2
    try:
        config = _apply_fleet_overrides(
            preset_config(args.preset if args.preset is not None
                          else "small"), args)
    except ConfigurationError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    # 'both' makes no sense across an ensemble; default to OCS.
    policy = PlacementPolicy.OCS if args.policy == "both" \
        else PlacementPolicy(args.policy)
    results = run_sweep(config, range(args.seeds), policy=policy,
                        processes=args.processes)
    mean = sweep_mean(results)
    if args.json:
        print(json.dumps({
            "policy": policy.value,
            "strategy": config.strategy.value,
            "seeds": [result.seed for result in results],
            "mean": mean,
            "per_seed": {str(result.seed): result.summary
                         for result in results},
        }, indent=2, sort_keys=True))
        return 0
    print(f"fleet sweep: policy={policy.value} "
          f"strategy={config.strategy.value} "
          f"pods={config.num_pods}x{config.blocks_per_pod} "
          f"seeds=0..{args.seeds - 1}")
    for result in results:
        print(f"  seed {result.seed}: "
              f"goodput {result.summary['goodput']:.3f}  "
              f"utilization {result.summary['utilization']:.3f}  "
              f"completed {result.summary['jobs_completed']:.0f}/"
              f"{result.summary['jobs_submitted']:.0f}")
    print(f"  mean: goodput {mean['goodput']:.3f}  "
          f"utilization {mean['utilization']:.3f}  "
          f"p95 queue wait {mean['p95_queue_wait'] / 3600:.2f}h")
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """One serving-tier run: autoscaled pools over live fleet traffic."""
    if args.preset is None:
        args.preset = "serve_surge"
    simulator = _fleet_simulator(args)
    if isinstance(simulator, int):
        return simulator
    if not simulator.config.serve_scenario:
        print(f"fleet serve: preset {args.preset!r} has no serving "
              f"scenario; use --preset serve_surge or --scenario "
              f"{{{','.join(scenario_names())}}}", file=sys.stderr)
        return 2
    report = simulator.run(PlacementPolicy(args.policy))
    if args.json:
        print(json.dumps({"summary": report.summary,
                          "serve": report.serve.summary,
                          "pools": report.serve.pools},
                         indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_fleet_lint(args: argparse.Namespace) -> int:
    """Static determinism analysis over the named paths.

    Exit codes follow the lint contract shared with CI: 0 clean, 1
    unsuppressed findings, 2 usage error (unknown rule, bad path).
    With no paths the installed `repro` package itself is linted, so
    a bare `fleet lint` works from any directory.
    """
    paths = args.paths or [Path(repro.__file__).parent]
    rule_filter = None
    if args.rules is not None:
        rule_filter = [rule_id.strip()
                       for rule_id in args.rules.split(",")
                       if rule_id.strip()]
        if not rule_filter:
            print("fleet lint: --rules needs at least one rule id",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        result = run_lint(paths, rule_filter=rule_filter)
    except AnalysisError as exc:
        print(f"fleet lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(result.to_json())
    else:
        print(result.render())
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.trace_out is not None and \
            (args.policy == "both" or args.strategy == "all"):
        print("--trace-out records one run; pick --policy ocs|static "
              "and a single --strategy", file=sys.stderr)
        return 2
    simulator = _fleet_simulator(args)
    if isinstance(simulator, int):
        return simulator
    if args.strategy == "all":
        # Strategy sweep: identical inputs, one report per strategy.
        # An explicit --policy is honored; the 'both' default means OCS
        # here (defrag needs switches that can rewire).
        policy = PlacementPolicy.OCS if args.policy == "both" \
            else PlacementPolicy(args.policy)
        reports = {strategy.value: simulator.run(policy, strategy)
                   for strategy in PlacementStrategy}
    elif args.policy == "both":
        reports = {
            "ocs": simulator.run(PlacementPolicy.OCS),
            "static": simulator.run(PlacementPolicy.STATIC),
        }
    else:
        policy = PlacementPolicy(args.policy)
        reports = {policy.value: simulator.run(
            policy,
            recorder=ObsRecorder() if args.trace_out is not None else None)}
    if args.trace_out is not None:
        report = next(iter(reports.values()))
        path = _save(save_obs, report.obs, args.trace_out)
        if path is None:
            return 2
        # stderr, so run stdout stays byte-comparable across reruns.
        print(f"fleet: wrote observability trace "
              f"({report.obs.num_records} records) to {path}",
              file=sys.stderr)
    if args.json:
        print(json.dumps({name: report.summary
                          for name, report in reports.items()},
                         indent=2, sort_keys=True))
    else:
        for report in reports.values():
            print(report.render())
    if args.policy == "both" and args.strategy != "all":
        ocs = reports["ocs"].summary["goodput"]
        static = reports["static"].summary["goodput"]
        if not args.json:
            advantage = f"{ocs / static - 1:+.1%}" if static > 0 \
                else "static did no useful work"
            print(f"OCS goodput advantage over static wiring: {advantage}")
        if ocs <= static:
            # The Figure 4 qualitative claim failed to hold; say so even
            # in --json mode, where stdout must stay machine-readable.
            print(f"fleet: OCS goodput {ocs:.4f} did not beat static "
                  f"{static:.4f}", file=sys.stderr)
            return 1
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be non-negative, got {value}")
    return value


def _fleet_parents() -> dict[str, argparse.ArgumentParser]:
    """The fleet subcommands' shared flag groups.

    One definition per flag: every subcommand that accepts `--preset`
    or `--strategy` or `--json` inherits the same argument object, so
    help text, types, choices, and defaults cannot drift between
    modes — and a mode that omits a parent rejects its flags outright
    instead of ignoring them.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit telemetry summaries as JSON")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--preset", default=None,
                        choices=preset_names(),
                        help="scenario preset (default: small; serve "
                             "defaults to serve_surge)")
    seeded.add_argument("--seed", type=_seed, default=None,
                        help="RNG seed for jobs and failures "
                             "(default: 0)")

    knobs = argparse.ArgumentParser(add_help=False)
    knobs.add_argument(
        "--strategy", default=None,
        choices=[s.value for s in PlacementStrategy] + ["all"],
        help="placement strategy (default: the preset's; 'all' sweeps "
             "every strategy — under the OCS policy unless --policy "
             "names one explicitly)")
    knobs.add_argument(
        "--reconfig-seconds", type=float, default=None, metavar="SECONDS",
        help="override the fixed OCS reconfiguration window "
             "(reconfig_base_seconds)")
    knobs.add_argument(
        "--trunk-ports", type=int, default=None, metavar="PORTS",
        help="override the per-pod trunk-port count of the machine "
             "OCS layer")
    knobs.add_argument(
        "--cross-pod", default=None,
        action=argparse.BooleanOptionalAction,
        help="enable/disable cross-pod slices over the trunk layer "
             "(default: the preset's; run once with --cross-pod and "
             "once with --no-cross-pod for an A/B on identical inputs)")
    knobs.add_argument(
        "--cross-pod-preemption", default=None,
        action=argparse.BooleanOptionalAction,
        help="enable/disable machine-wide contention resolution: a "
             "preempting job bigger than one pod may assemble a "
             "cross-pod placement out of evictions (default: the "
             "preset's; --no-cross-pod-preemption reproduces the "
             "pod-local contention behavior on identical inputs)")
    knobs.add_argument(
        "--deploy-schedule", default=None,
        choices=schedule_names() + ["none"],
        help="overlay a deployment drain schedule on the run "
             "(default: the preset's deploy_schedule, or none; 'none' "
             "disables the preset's)")
    knobs.add_argument(
        "--sample-every", type=float, default=None, metavar="SECONDS",
        help="sim-time cadence of the observability time-series "
             "sampler (default: the preset's "
             "obs_sample_every_seconds)")

    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument("--policy", default="both",
                        choices=["both", "ocs", "static"],
                        help="placement policy to simulate")

    return {"common": common, "seeded": seeded, "knobs": knobs,
            "policy": policy}


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproductions of the TPU v4 ISCA 2023 paper.")
    sub = parser.add_subparsers(dest="command")

    list_cmd = sub.add_parser(
        "list", help="list registered experiment ids")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit the ids as a JSON array")
    list_cmd.set_defaults(func=_cmd_list)

    run_cmd = sub.add_parser(
        "run", help="run one or more experiments (or 'all')")
    run_cmd.add_argument("experiments", nargs="+",
                         metavar="experiment-id|all")
    run_cmd.set_defaults(func=_cmd_run)

    fleet_cmd = sub.add_parser(
        "fleet", help="simulate a multi-pod fleet scenario")
    parents = _fleet_parents()
    fleet_sub = fleet_cmd.add_subparsers(dest="mode")

    def trace_flag(cmd: argparse.ArgumentParser, verb: str) -> None:
        cmd.add_argument("--trace", required=True, metavar="PATH",
                         help=f"trace file to {verb}")

    def trace_out_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="record the run's observability log and write it "
                 "here: Chrome trace-event JSON (open in Perfetto), "
                 "or versioned JSONL when PATH ends in .jsonl; needs "
                 "a single policy and strategy")

    run_mode = fleet_sub.add_parser(
        "run", parents=[parents["seeded"], parents["knobs"],
                        parents["policy"], parents["common"]],
        help="simulate fresh draws from the preset + seed (the "
             "default mode: a bare `fleet` means `fleet run`)")
    trace_out_flag(run_mode)
    run_mode.set_defaults(func=_cmd_fleet, mode="run", trace=None)

    record_mode = fleet_sub.add_parser(
        "record", parents=[parents["seeded"], parents["knobs"],
                           parents["policy"], parents["common"]],
        help="run and also save the run's inputs as a JSONL trace "
             "(--trace)")
    trace_flag(record_mode, "write")
    trace_out_flag(record_mode)
    record_mode.set_defaults(func=_cmd_fleet, mode="record")

    replay_mode = fleet_sub.add_parser(
        "replay", parents=[parents["knobs"], parents["policy"],
                           parents["common"]],
        help="re-run a recorded trace byte-for-byte (--trace; config "
             "and seed come from the trace, so --preset/--seed are "
             "rejected)")
    trace_flag(replay_mode, "read")
    trace_out_flag(replay_mode)
    replay_mode.set_defaults(func=_cmd_fleet, mode="replay",
                             preset=None, seed=None)

    report_mode = fleet_sub.add_parser(
        "report", help="render a recorded observability trace "
                       "(--trace)")
    trace_flag(report_mode, "read")
    report_mode.add_argument(
        "--limit", type=int, default=30, metavar="N",
        help="show at most N per-job timeline rows")
    report_mode.set_defaults(func=_cmd_fleet_report, mode="report")

    profile_mode = fleet_sub.add_parser(
        "profile", parents=[parents["seeded"], parents["knobs"],
                            parents["policy"], parents["common"]],
        help="one instrumented run with the dispatch-loop wall-clock "
             "profile")
    profile_mode.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the identical simulation N times and report the "
             "fastest (best-of-N wall clock; default 1)")
    trace_out_flag(profile_mode)
    profile_mode.set_defaults(func=_cmd_fleet_profile, mode="profile",
                              trace=None)

    sweep_mode = fleet_sub.add_parser(
        "sweep", parents=[parents["seeded"], parents["knobs"],
                          parents["policy"], parents["common"]],
        help="fan seeds 0..N-1 across worker processes "
             "(--seeds/--processes)")
    sweep_mode.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="number of seeds (runs 0..N-1; default 8)")
    sweep_mode.add_argument(
        "--processes", type=int, default=None, metavar="P",
        help="worker processes (default: one per core, capped at the "
             "seed count; 1 runs inline)")
    sweep_mode.set_defaults(func=_cmd_fleet_sweep, mode="sweep",
                            trace=None, trace_out=None)

    serve_mode = fleet_sub.add_parser(
        "serve", parents=[parents["seeded"], parents["knobs"],
                          parents["common"]],
        help="one serving-tier run: per-model replica pools autoscale "
             "against diurnal request traffic on real fleet slices "
             "(default preset: serve_surge)")
    serve_mode.add_argument(
        "--policy", default="ocs", choices=["ocs", "static"],
        help="placement policy for the run (default: ocs; serve runs "
             "one policy at a time)")
    serve_mode.add_argument(
        "--autoscaler", default=None, choices=list(AUTOSCALERS),
        help="autoscaling policy for every pool (default: the "
             "config's serve_autoscaler, normally reactive)")
    serve_mode.add_argument(
        "--scenario", default=None, choices=scenario_names(),
        help="serving scenario override (default: the preset's "
             "serve_scenario)")
    serve_mode.set_defaults(func=_cmd_fleet_serve, mode="serve",
                            trace=None, trace_out=None)

    lint_mode = fleet_sub.add_parser(
        "lint", parents=[parents["common"]],
        help="static determinism analysis: the detlint rule pack "
             "over the named paths (default: the installed repro "
             "package); exit 0 clean, 1 findings, 2 usage error")
    lint_mode.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro "
             "package)")
    lint_mode.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all; e.g. "
             "D001,D003,C102)")
    lint_mode.set_defaults(func=_cmd_fleet_lint, mode="lint")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if not arguments or arguments[0] == "help":
        print(__doc__)
        print("experiments:", ", ".join(list_experiments()))
        return 0
    if arguments[0] == "fleet" and (
            len(arguments) == 1 or
            (arguments[1].startswith("-") and
             arguments[1] not in ("-h", "--help"))):
        # Mode-less `fleet --preset ...` means `fleet run`; `fleet -h`
        # still shows the mode overview.
        arguments.insert(1, "run")
    parser = build_parser()
    try:
        args = parser.parse_args(arguments)
    except SystemExit as exc:  # argparse exits on -h and usage errors
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
