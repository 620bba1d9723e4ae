#!/usr/bin/env python
"""Bench-regression gate: fleet goodput must not drop below baseline.

CI runs this after the benchmark suite: the gated scenarios are
re-simulated (every run is deterministic — seed 0, fixed presets) and
compared against the committed baseline in
``benchmarks/baselines/fleet_goodput_baseline.json``.  The build fails
if any gated metric drops more than the baseline's tolerance (2%)
below its committed value — catching the quiet way a scheduler change
regresses: not by breaking a test, but by shaving goodput.

The gate also times the 64-pod `hyperscale` scenario.  The wall
seconds are report-only (recorded in the baseline for visibility):
machines differ, so host time is gated by the benchmark in
``perfbench/``, not here.

Because the runs are deterministic, a healthy build measures the
baseline values *exactly*; the tolerance exists so an intentional,
small accounting change does not hard-block unrelated work.  A change
that legitimately moves goodput re-records with::

    PYTHONPATH=src python benchmarks/check_regression.py --update

and commits the diff — which makes the perf change visible in review
instead of silent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.fleet import (FleetSimulator, compare_autoscalers,
                         compare_deployment, compare_preemption,
                         preset_config)
from repro.fleet.serve import SERVE_SCHEMA, reconciliation_residual
from repro.fleet.telemetry import SUMMARY_SCHEMA
from repro.fleet.workload import hostile_background_mix

BASELINE_PATH = Path(__file__).parent / "baselines" / \
    "fleet_goodput_baseline.json"
BASELINE_SCHEMA = 6
DEFAULT_TOLERANCE = 0.02
GATE_SEED = 0


def _assert_summary_schema(summary: dict) -> None:
    """Fail loudly when the summary dict's shape drifted.

    Every gated value is picked out of `FleetTelemetry.summary()` by
    key; if that dict's key set changes without a `SUMMARY_SCHEMA`
    bump (or the baseline was recorded against an older schema), the
    gate would silently compare mismatched shapes.  Exit 2, not 1:
    this is gate misconfiguration, not a perf regression.
    """
    got = summary.get("schema_version")
    if got != float(SUMMARY_SCHEMA):
        print(f"regression gate: summary schema_version {got!r} != "
              f"library SUMMARY_SCHEMA {SUMMARY_SCHEMA}; summary shape "
              f"drifted without a schema bump", file=sys.stderr)
        raise SystemExit(2)


def measure() -> dict[str, float]:
    """Re-run every gated scenario and return its goodput metrics.

    The headline gate is `large_best_fit_goodput` (the ISSUE's named
    regression surface: machine-wide placement on the large preset);
    the medium strategy gate and the deployment-scenario gates ride
    along so a regression in any tentpole path fails loudly.

    These scenarios are deliberately re-simulated rather than scraped
    from the bench suite's artifact: pytest-benchmark JSON carries
    timings, not goodput, and a self-contained gate keeps working even
    when the bench suite is skipped or reshaped.  The double compute
    is deterministic and costs ~30s of CI.
    """
    large = FleetSimulator(preset_config("large"), seed=GATE_SEED).run(
        PlacementPolicy.OCS, PlacementStrategy.BEST_FIT)
    medium = FleetSimulator(preset_config("medium"), seed=GATE_SEED).run(
        PlacementPolicy.OCS, PlacementStrategy.BEST_FIT)
    deploy = compare_deployment(preset_config("deploy_week"),
                                seed=GATE_SEED)
    # The cross-pod preemption gate (schema 2): on the large preset
    # under a hostile low-priority background mix, best_fit with
    # machine-wide preemption must keep serving the 48-block class —
    # the pod-local scheduler starves it to exactly zero, so any drop
    # here means the contention path quietly stopped firing.
    hostile = preset_config("large").with_overrides(preempt_priority=1)
    contention = compare_preemption(hostile, seed=GATE_SEED,
                                    strategy=PlacementStrategy.BEST_FIT,
                                    workload=hostile_background_mix)
    target = max(record.blocks
                 for record in contention["preemption"].job_records)
    edge = FleetSimulator(preset_config("edge"), seed=GATE_SEED).run(
        PlacementPolicy.OCS)
    # The serving gate (schema 5): on serve_surge (3x launch spike
    # inside the deploy-week drain), the reactive autoscaler must keep
    # beating the peak-pinned static capacity split on SLO-attained
    # requests per chip-second — gating both its absolute value and
    # its margin over static, so neither the serving tier nor the
    # autoscaler can quietly regress.  The full four-policy comparison
    # lives in bench_serve_autoscale.py; this gate re-runs only the
    # headline pair.
    serve = compare_autoscalers(preset_config("serve_surge"),
                                seed=GATE_SEED,
                                autoscalers=("reactive", "static"))
    for report in serve.values():
        if report.serve.summary["schema_version"] != float(SERVE_SCHEMA):
            print(f"regression gate: serve schema_version "
                  f"{report.serve.summary['schema_version']!r} != "
                  f"library SERVE_SCHEMA {SERVE_SCHEMA}",
                  file=sys.stderr)
            raise SystemExit(2)
        residual = reconciliation_residual(report)
        if residual > 1e-9:
            print(f"regression gate: serve reconciliation residual "
                  f"{residual:.3e} exceeds 1e-9", file=sys.stderr)
            raise SystemExit(1)
    reactive_per_chip = \
        serve["reactive"].serve.summary["slo_attainment_per_chip"]
    static_per_chip = \
        serve["static"].serve.summary["slo_attainment_per_chip"]
    for summary in (large.summary, medium.summary,
                    deploy["ocs"].summary, deploy["static"].summary,
                    contention["preemption"].summary,
                    contention["queueing"].summary, edge.summary):
        _assert_summary_schema(summary)
    return {
        "large_best_fit_goodput": large.summary["goodput"],
        "medium_best_fit_goodput": medium.summary["goodput"],
        "deploy_week_ocs_goodput": deploy["ocs"].summary["goodput"],
        "deploy_week_ocs_minus_static_goodput":
            deploy["ocs"].summary["goodput"] -
            deploy["static"].summary["goodput"],
        "large_hostile_preempt_48_goodput":
            contention["preemption"].goodput_for_blocks(target),
        "large_hostile_preempt_48_goodput_gain":
            contention["preemption"].goodput_for_blocks(target) -
            contention["queueing"].goodput_for_blocks(target),
        "edge_defrag_goodput": edge.summary["goodput"],
        "serve_surge_reactive_slo_attainment_per_chip":
            reactive_per_chip,
        "serve_surge_reactive_minus_static_slo_attainment_per_chip":
            reactive_per_chip - static_per_chip,
    }


def measure_walls() -> dict[str, float]:
    """Hyperscale wall-clock seconds (report-only).

    Best-of-2 timings of ``.run()`` on one pre-built simulator, so
    workload generation stays outside the timer.  Machines differ, so
    the value is printed and recorded, never gated.
    """
    simulator = FleetSimulator(preset_config("hyperscale"), seed=GATE_SEED)
    best = math.inf
    for _ in range(2):
        began = time.perf_counter()
        simulator.run(PlacementPolicy.OCS)
        best = min(best, time.perf_counter() - began)
    return {"hyperscale_wall_seconds": round(best, 4)}


def load_baseline() -> dict:
    if not BASELINE_PATH.exists():
        print(f"regression gate: missing baseline {BASELINE_PATH}; "
              f"run with --update to record one", file=sys.stderr)
        raise SystemExit(2)
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"regression gate: unsupported baseline schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        raise SystemExit(2)
    if baseline.get("summary_schema") != SUMMARY_SCHEMA:
        print(f"regression gate: baseline was recorded against summary "
              f"schema {baseline.get('summary_schema')!r}, the library "
              f"now emits {SUMMARY_SCHEMA}; re-record with --update",
              file=sys.stderr)
        raise SystemExit(2)
    return baseline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--json", action="store_true",
                        help="emit the measured metrics as JSON")
    args = parser.parse_args(argv)

    began = time.perf_counter()
    measured = measure()
    wall_seconds = time.perf_counter() - began
    walls = measure_walls()
    if args.json:
        print(json.dumps({**measured, **walls}, indent=2, sort_keys=True))
    if args.update:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps({
            "schema": BASELINE_SCHEMA,
            "seed": GATE_SEED,
            "summary_schema": SUMMARY_SCHEMA,
            "tolerance": DEFAULT_TOLERANCE,
            # Report-only (machines differ; see the wall-clock line in
            # the compare output) — NOT in `metrics`, so never gated.
            "wall_seconds": round(wall_seconds, 3),
            # Also report-only.
            "hyperscale_walls": walls,
            "metrics": measured,
        }, indent=2, sort_keys=True) + "\n")
        print(f"regression gate: baseline updated at {BASELINE_PATH}")
        return 0

    baseline = load_baseline()
    tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    failures = []
    for name, expected in sorted(baseline["metrics"].items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: gated metric no longer measured")
            continue
        floor = expected * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"{name}: measured {got:.6f} vs baseline {expected:.6f} "
              f"(floor {floor:.6f}) {verdict}")
        if got < floor:
            failures.append(
                f"{name}: {got:.6f} is more than {tolerance:.0%} below "
                f"the baseline {expected:.6f}")
    for name in sorted(set(measured) - set(baseline["metrics"])):
        print(f"{name}: measured {measured[name]:.6f} (not gated; "
              f"--update to start gating it)")
    recorded = baseline.get("wall_seconds")
    print(f"wall-clock seconds: {wall_seconds:.2f} measured vs "
          f"{recorded:.2f} at baseline recording"
          if recorded is not None else
          f"wall-clock seconds: {wall_seconds:.2f} measured "
          f"(baseline has none)", end="")
    print(" [report-only, not gated]")
    recorded_walls = baseline.get("hyperscale_walls", {})
    for name in sorted(walls):
        at_baseline = recorded_walls.get(name)
        suffix = f" vs {at_baseline:.4f} at baseline recording" \
            if at_baseline is not None else ""
        print(f"{name}: {walls[name]:.4f} measured{suffix} "
              f"[report-only, not gated]")
    if failures:
        print("\nregression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
