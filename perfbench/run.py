"""Host-time benchmark of the repository's simulators.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hyperscale --seed 0 --seconds 25 \\
        --trace 0

Runs one workload for ``--seconds`` of rounds under ``python -O`` on the
default strict tier, in this one process.  A round runs every
operation of the workload once: each recorded seed of a fleet
workload, or each collective.  ``--seed`` rotates the order of the
recorded list, and ``--seed-set heldout`` swaps in the held-out list
that a performance claim must also pass.  Every output is checked
outside the timed region.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (operations), and ``metrics``.  With ``--trace 0`` those
are the end-to-end metrics over the rounds.  With ``--trace 1``
untraced and traced rounds alternate, and the metrics are the
per-layer self times and counts of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Host seconds one :func:`reference_s` pass is scaled to.  A quiet
#: 2-vCPU Xeon VM takes 3.5 ms; the same VM under load from other
#: tenants takes up to twice that.
REFERENCE_S = 0.004


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=("default", "heldout"),
                        default="default")
    return parser.parse_args(argv)


def _import_repro() -> None:
    """Put this checkout's ``src`` first and insist the import lands there."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from "
                         f"{ROOT / 'src'}")


def reference_s() -> float:
    """Host seconds of one fixed pass of simulator-like interpreter work.

    Heap pushes and pops of tuples, dict counting, a keyed sort and
    small numpy writes, as in the simulators' inner loops.  Garbage
    collection is off during the pass, so it never scans the heap the
    workload left behind, and the pass keeps nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    bank = np.full((4, 128), -1, dtype=np.int32)
    rows = np.arange(4)
    cols = np.array([5, 9, 77, 101])
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for index in range(4000):
        heapq.heappush(heap, ((index * 7919) % 1021, index))
        counts[index % 509] = counts.get(index % 509, 0) + 1
        if index % 32 == 0:
            bank[rows, cols] = index
            bank[rows, cols] = -1
    sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    while heap:
        heapq.heappop(heap)
    took = time.perf_counter() - began
    if enabled:
        gc.enable()
    return took


def scaled_s(rounds: list[dict], phase: str) -> float:
    """Seconds of one round's `phase`, scaled to the reference pass.

    Other tenants of a shared host slow this process down by up to
    half again, in bursts from a fraction of a second to minutes.  Each
    phase of each operation is therefore timed between two reference
    passes and kept as its ratio to their mean, which cancels the
    slowdown both see.  An operation's median ratio over the rounds,
    times :data:`REFERENCE_S`, summed over the operations, is the
    round's time (README.md, Noise, compares estimators).
    """
    return REFERENCE_S * sum(
        statistics.median(row[phase][op] for row in rounds)
        for op in rounds[0][phase])


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from layers import COUNTS, LAYERS
    metrics = [(f"{layer}.self_s", "s") for layer in LAYERS]
    for name in COUNTS:
        if name == "network.fairshare.flows":
            metrics.append(("network.fairshare.flows_per_call", "flows/call"))
        else:
            metrics.append((name, "count"))
    metrics += [("unattributed_s", "s"), ("unattributed_share", "ratio"),
                ("trace.wall_s", "s"), ("trace.overhead", "x")]
    return metrics


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, op: Any, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op}: {'; '.join(failures)}")


def run_round(workload: Any, ops: list[Any], tally: Tally,
              clock: Any = None) -> dict[str, Any]:
    """Run and check every operation once; returns the round's timings.

    ``setup`` and ``run`` map each operation to its phase time over the
    reference pass (:func:`scaled_s`); ``run_s`` is the raw sum.
    Untraced, set-up repeats ``workload.setup_repeats`` times and the
    mean counts.  With a `clock` both phases run inside its tracing
    session, with no reference pass between them, and only the run
    ratio is kept.
    """
    row: dict[str, Any] = {"setup": {}, "run": {}, "run_s": 0.0,
                           "items": 0}
    for op in ops:
        gc.collect()
        before = reference_s()
        if clock is None:
            began = time.perf_counter()
            for _ in range(workload.setup_repeats):
                inputs = workload.setup(op)
            setup_s = (time.perf_counter() - began) / workload.setup_repeats
            between = reference_s()
            began = time.perf_counter()
            output = workload.run(op, inputs, None)
            run_s = time.perf_counter() - began
            after = reference_s()
            row["setup"][op] = 2 * setup_s / (before + between)
            row["run"][op] = 2 * run_s / (between + after)
        else:
            with clock.session():
                began = time.perf_counter()
                inputs = workload.setup(op)
                set_up = time.perf_counter()
                output = workload.run(op, inputs, clock)
                run_s = time.perf_counter() - set_up
            after = reference_s()
            row["run"][op] = 2 * run_s / (before + after)
        row["run_s"] += run_s
        items, failures = workload.check(op, output)
        del inputs, output
        row["items"] += items
        tally.add(op, failures)
    return row


def measure(workload: Any, ops: list[Any], seconds: float,
            trace: bool) -> tuple[dict[str, float], Tally, list[dict]]:
    """Rounds for `seconds`; returns (metrics, tally, per-round rows).

    Untraced mode runs untraced rounds only.  Traced mode alternates
    untraced and traced rounds (at least one of each), so the tracing
    overhead compares rounds taken under the same machine conditions.
    """
    from layers import UNATTRIBUTED, LayerClock
    tally = Tally()
    clock = LayerClock() if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        if clock is not None and len(traced) < len(plain):
            clock.reset()
            row = run_round(workload, ops, tally, clock)
            row["self_s"] = dict(clock.self_s)
            row["counts"] = clock.harvest()
            traced.append(row)
        else:
            plain.append(run_round(workload, ops, tally))
        if time.perf_counter() >= deadline and \
                (clock is None or traced):
            break
    run_s = scaled_s(plain, "run")
    if clock is None:
        metrics = {
            "run_s": run_s,
            "setup_s": scaled_s(plain, "setup"),
            "work_per_s": plain[0]["items"] / run_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, tally, plain
    if clock.missing:
        tally.add("layer map", [f"entry points renamed or removed: "
                                f"{sorted(clock.missing)}"])
    for row in traced:
        if row["counts"] != traced[0]["counts"]:
            tally.add("traced rounds", ["layer counts differ between "
                                        "identical rounds"])
    metrics = {}
    for layer in traced[0]["self_s"]:
        if layer != UNATTRIBUTED:
            metrics[f"{layer}.self_s"] = statistics.median(
                row["self_s"][layer] for row in traced)
    counts = traced[0]["counts"]
    for name, value in counts.items():
        metrics[name] = value
    flows = metrics.pop("network.fairshare.flows")
    calls = counts["network.fairshare.calls"]
    metrics["network.fairshare.flows_per_call"] = \
        flows / calls if calls else 0.0
    # The layers and the unattributed remainder share the traced wall.
    walls = [sum(row["self_s"].values()) for row in traced]
    unattributed = [row["self_s"][UNATTRIBUTED] for row in traced]
    metrics["unattributed_s"] = statistics.median(unattributed)
    metrics["unattributed_share"] = statistics.median(
        part / wall for part, wall in zip(unattributed, walls))
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead"] = scaled_s(traced, "run") / run_s
    return metrics, tally, traced


def _report(name: str, metrics: dict[str, float],
            units: list[tuple[str, str]], tally: Tally,
            rounds: list[dict]) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"perfbench {name}: {len(rounds)} rounds measured, "
          f"{tally.attempted} operations, {tally.failed} failed "
          f"(failed_share {tally.failed / max(tally.attempted, 1):.3f})")
    wall = metrics.get("trace.wall_s")
    for metric, unit in units:
        value = metrics[metric]
        share = f"  {value / wall:6.1%}" if wall and unit == "s" and \
            metric.endswith("self_s") else ""
        print(f"  {metric:<44} {value:>14.6g} {unit}{share}")
    print("  round run_s (unscaled): " +
          " ".join(f"{row['run_s']:.4f}" for row in rounds))
    for message in tally.messages:
        print(f"  FAILED {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_repro()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed_set, args.seed)
    metrics, tally, rounds = measure(workload, ops, args.seconds,
                                     bool(args.trace))
    units = per_layer_metrics() if args.trace else list(END_TO_END)
    _report(args.workload, metrics, units, tally, rounds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units},
    }))
    return 0


if __name__ == "__main__":
    if not sys.flags.optimize or not sys.flags.dont_write_bytecode:
        # The benchmark measures `python -O` (the simulator's invariant
        # guards compile out) and writes no bytecode into the checkout.
        os.execv(sys.executable,
                 [sys.executable, "-O", "-B", __file__, *sys.argv[1:]])
    sys.exit(main())
