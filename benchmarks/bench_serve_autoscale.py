#!/usr/bin/env python
"""Serving-tier capacity gate: autoscaling vs the static split.

The ISSUE's serving benchmark, CI-enforced: on the `serve_surge`
preset (a 3x launch spike landing inside the `deploy_week` drain,
plus pod-outage failovers), an autoscaling OCS fleet must *strictly*
beat the static-partition capacity split on SLO-attained requests per
chip-second.  The static baseline pins every pool at the full curve's
peak — surges included — so it never sheds but burns chips all night;
the autoscalers ride the diurnal curve and pay for it only when the
spin-up lag shows.

Every run is byte-identical per seed, so the committed comparison in
``benchmarks/baselines/serve_surge_comparison.json`` is reproduced
exactly by a healthy build; the tolerance exists so an intentional
small accounting change does not hard-block unrelated work.  A change
that legitimately moves the numbers re-records with::

    PYTHONPATH=src python benchmarks/bench_serve_autoscale.py --update

and commits the diff.  Every run also checks the serving telemetry's
reconciliation against the utilization identity to 1e-9 — the gate is
meaningless if the chip-seconds it divides by drifted off the books.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TextIO

from repro.fleet import preset_config
from repro.fleet.serve import (SERVE_SCHEMA, compare_autoscalers,
                               reconciliation_residual)

COMPARISON_PATH = Path(__file__).parent / "baselines" / \
    "serve_surge_comparison.json"
COMPARISON_SCHEMA = 1
DEFAULT_TOLERANCE = 0.02
GATE_SEED = 0
RESIDUAL_BOUND = 1e-9

#: Per-policy serve metrics recorded in the comparison (all floats;
#: every one is gated against the committed values both ways, because
#: a *rise* in shed requests is as much a drift as a drop in
#: attainment).
RECORDED_METRICS = (
    "slo_attainment",
    "slo_attainment_per_chip",
    "requests_total",
    "requests_shed",
    "serving_chip_seconds",
    "p99_latency_seconds",
    "replicas_peak",
    "replica_interruptions",
    "scale_ups",
    "scale_downs",
)


def measure() -> dict[str, dict[str, float]]:
    """One `serve_surge` run per autoscaler policy."""
    reports = compare_autoscalers(preset_config("serve_surge"),
                                  seed=GATE_SEED)
    comparison = {}
    for policy, report in sorted(reports.items()):
        serve = report.serve
        if serve.summary["schema_version"] != float(SERVE_SCHEMA):
            print(f"serve gate: {policy} summary schema "
                  f"{serve.summary['schema_version']!r} != library "
                  f"SERVE_SCHEMA {SERVE_SCHEMA}", file=sys.stderr)
            raise SystemExit(2)
        residual = reconciliation_residual(report)
        if residual > RESIDUAL_BOUND:
            print(f"serve gate: {policy} reconciliation residual "
                  f"{residual:.3e} exceeds {RESIDUAL_BOUND:.0e}",
                  file=sys.stderr)
            raise SystemExit(1)
        comparison[policy] = {
            metric: serve.summary[metric] for metric in RECORDED_METRICS}
    return comparison


def check_gate(comparison: dict[str, dict[str, float]],
               status: TextIO) -> list[str]:
    """The headline claim: autoscaling beats the static split per chip.

    One status line per policy goes to `status`.
    """
    failures = []
    static = comparison["static"]["slo_attainment_per_chip"]
    for policy in ("reactive", "predictive", "scheduled"):
        got = comparison[policy]["slo_attainment_per_chip"]
        verdict = "ok" if got > static else "FAILED"
        print(f"serve gate: {policy} SLO-attained req/chip-sec "
              f"{got:.1f} vs static {static:.1f} "
              f"({got / static:.2f}x) {verdict}", file=status)
        if got <= static:
            failures.append(
                f"{policy} does not beat the static split on "
                f"SLO-attainment per chip ({got:.1f} <= {static:.1f})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed comparison from "
                             "this run")
    parser.add_argument("--json", action="store_true",
                        help="emit the measured comparison as JSON")
    args = parser.parse_args(argv)
    # With --json, stdout carries the JSON alone.
    status = sys.stderr if args.json else sys.stdout

    began = time.perf_counter()
    comparison = measure()
    wall_seconds = time.perf_counter() - began
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    failures = check_gate(comparison, status)

    if args.update:
        if failures:
            print("serve gate: refusing to record a baseline that "
                  "fails the gate:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        COMPARISON_PATH.parent.mkdir(parents=True, exist_ok=True)
        COMPARISON_PATH.write_text(json.dumps({
            "schema": COMPARISON_SCHEMA,
            "seed": GATE_SEED,
            "serve_schema": SERVE_SCHEMA,
            "preset": "serve_surge",
            "tolerance": DEFAULT_TOLERANCE,
            "wall_seconds": round(wall_seconds, 3),  # report-only
            "comparison": comparison,
        }, indent=2, sort_keys=True) + "\n")
        print(f"serve gate: comparison recorded at {COMPARISON_PATH}",
              file=status)
        return 0

    if not COMPARISON_PATH.exists():
        print(f"serve gate: missing comparison {COMPARISON_PATH}; run "
              f"with --update to record one", file=sys.stderr)
        return 2
    committed = json.loads(COMPARISON_PATH.read_text())
    if committed.get("schema") != COMPARISON_SCHEMA or \
            committed.get("serve_schema") != SERVE_SCHEMA:
        print(f"serve gate: comparison schema mismatch "
              f"(file schema {committed.get('schema')!r}, serve "
              f"{committed.get('serve_schema')!r}); re-record with "
              f"--update", file=sys.stderr)
        return 2
    tolerance = float(committed.get("tolerance", DEFAULT_TOLERANCE))
    for policy, expected in sorted(committed["comparison"].items()):
        got = comparison.get(policy)
        if got is None:
            failures.append(f"{policy}: no longer measured")
            continue
        for metric, value in sorted(expected.items()):
            measured_value = got.get(metric)
            if measured_value is None:
                failures.append(f"{policy}.{metric}: no longer measured")
                continue
            drift = abs(measured_value - value) / value if value else \
                abs(measured_value)
            if drift > tolerance:
                failures.append(
                    f"{policy}.{metric}: measured {measured_value:.6g} "
                    f"drifted {drift:.1%} from committed {value:.6g}")
    print(f"serve gate: {len(comparison)} policies in "
          f"{wall_seconds:.1f}s against {COMPARISON_PATH.name}",
          file=status)
    if failures:
        for failure in failures:
            print(f"serve gate: {failure}", file=sys.stderr)
        return 1
    print("serve gate: autoscaling beats the static split; comparison "
          "matches the committed baseline", file=status)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
