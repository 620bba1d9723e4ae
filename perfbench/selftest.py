"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

A later change may cite a per-layer count only while
:func:`test_traced_counts_repeat_exactly` holds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import run
from run import Tally, run_round

run._import_repro()

from layers import UNATTRIBUTED, LayerClock  # noqa: E402
from workloads import SEED_SETS, WORKLOADS, load_recorded  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: One cheap round per workload, and the counts it must drive.
SMALL_ROUNDS = {
    "hyperscale": ([0], ("fleet.machine.release.calls",
                         "fleet.fabric.release.calls",
                         "fleet.scheduler.cross_pod.placed")),
    "serve_surge": ([0], ("fleet.serve.ticks",
                          "fleet.scheduler.queue_visits")),
    "edge_replay": ([0], ("fleet.scheduler.defrag.calls",
                          "fleet.scheduler.preemption.placed",
                          "fleet.obs.records", "fleet.trace.bytes")),
    "collectives": (["alltoall_torus", "alltoall_twisted"],
                    ("network.fairshare.calls", "network.flowsim.flows")),
}


def traced_round(name: str, ops: list) -> LayerClock:
    clock = LayerClock()
    tally = Tally()
    run_round(WORKLOADS[name], ops, tally, clock)
    assert tally.failed == 0, tally.messages
    return clock


@pytest.mark.parametrize("name", sorted(SMALL_ROUNDS))
def test_traced_counts_repeat_exactly(name):
    ops, driven = SMALL_ROUNDS[name]
    first = traced_round(name, ops).harvest()
    second = traced_round(name, ops).harvest()
    assert first == second
    for counter in driven:
        assert first[counter] > 0, counter


def test_hyperscale_releases_touch_every_pod():
    counts = traced_round("hyperscale", [0]).harvest()
    assert counts["fleet.fabric.release.calls"] == \
        64 * counts["fleet.machine.release.calls"]


def test_self_times_partition_the_traced_wall():
    clock = LayerClock()
    began = time.perf_counter()
    run_round(WORKLOADS["hyperscale"], [1], Tally(), clock)
    wall = time.perf_counter() - began
    assert sum(clock.self_s.values()) <= wall
    assert clock.self_s[UNATTRIBUTED] < 0.1 * sum(clock.self_s.values())


def test_session_restores_every_patch():
    import repro.fleet.simulator as fleet_simulator
    import repro.network.flowsim as flowsim
    before = (fleet_simulator.Simulator, fleet_simulator.FleetState,
              flowsim.max_min_fair_rates, flowsim.FlowSim.add_flow)
    with LayerClock().session():
        assert fleet_simulator.FleetState is not before[1]
    assert (fleet_simulator.Simulator, fleet_simulator.FleetState,
            flowsim.max_min_fair_rates, flowsim.FlowSim.add_flow) == before


def test_missing_entry_point_fails_the_traced_run(monkeypatch):
    import repro.fleet.trace as fleet_trace
    monkeypatch.delattr(fleet_trace, "dumps_trace")
    _, tally, _ = run.measure(WORKLOADS["collectives"], ["alltoall_torus"],
                              seconds=0.0, trace=True)
    assert tally.failed == 1
    assert "fleet.trace.dumps_trace" in tally.messages[0]


def test_reference_pass_is_positive_and_keeps_gc_state():
    import gc
    assert gc.isenabled()
    assert run.reference_s() > 0
    assert gc.isenabled()


def test_recorded_outputs_cover_both_seed_sets():
    recorded = load_recorded()
    for name, workload in WORKLOADS.items():
        default, heldout = (set(workload.seeds[s]) for s in SEED_SETS)
        assert not default & heldout, name
        for seed in default | heldout:
            assert str(seed) in recorded["digests"][name], (name, seed)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
