"""The benchmark's workloads: inputs, timed phases and output checks.

Each workload runs a list of *operations* per round.  An operation is
one seed run (fleet workloads) or one collective (``collectives``).
``run.py`` times :meth:`setup` and :meth:`run` of every operation and
calls :meth:`check` outside the timed region; a check that fails
counts its operation as failed.

Host time is what is measured.  Simulated time and simulated
statistics are model outputs: they are only checked, never reported
as metrics.  Every strict fleet run must reproduce the summary digest
recorded in ``recorded.json`` for its seed, so a change that only
claims to speed the simulator up cannot move a single output bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import repro.fleet.obs.export as obs_export
import repro.fleet.trace as fleet_trace
import repro.network.simcollectives as simcollectives
from repro.core.scheduler import PlacementPolicy
from repro.errors import TraceError
from repro.fleet.obs.tracer import ObsRecorder
from repro.fleet.presets import preset_config
from repro.fleet.scenario import schedule_for
from repro.fleet.serve.tier import reconciliation_residual
from repro.fleet.simulator import FleetReport, FleetSimulator
from repro.network.collectives import ring_allreduce_time
from repro.topology import Torus3D, TwistedTorus3D

RECORDED = Path(__file__).with_name("recorded.json")

#: Absolute tolerance of the accounting identities, relative tolerance
#: of the collective times.
TOLERANCE = 1e-9

SEED_SETS = ("default", "heldout")


def summary_digest(summary: dict[str, float]) -> str:
    """sha256 over the sorted summary JSON (the repo's digest gate)."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


def load_recorded() -> dict[str, Any]:
    """The digests and collective times recorded with the benchmark."""
    return json.loads(RECORDED.read_text())


class FleetWorkload:
    """Strict OCS runs of one fleet preset, several seeds back to back.

    Set-up is :class:`FleetSimulator` construction (job stream, failure
    trace, and the preset's deployment drain windows); the run is
    ``FleetSimulator.run``.  A work item is one submitted job.
    """

    setup_repeats = 1

    def __init__(self, name: str, preset: str,
                 seeds: dict[str, tuple[int, ...]]) -> None:
        self.name = name
        self.preset = preset
        self.seeds = seeds
        self._digests: dict[str, str] | None = None

    def ops(self, seed_set: str, seed: int) -> list[int]:
        """One round's seeds: the recorded list, rotated by `seed`."""
        seeds = list(self.seeds[seed_set])
        shift = seed % len(seeds)
        return seeds[shift:] + seeds[:shift]

    def digest_for(self, seed: int) -> str | None:
        """The summary digest recorded for `seed`, if any."""
        if self._digests is None:
            self._digests = load_recorded()["digests"].get(self.name, {})
        return self._digests.get(str(seed))

    def setup(self, seed: int) -> FleetSimulator:
        config = preset_config(self.preset)
        windows = schedule_for(config.deploy_schedule, config).windows \
            if config.deploy_schedule else ()
        return FleetSimulator(config, seed=seed, windows=windows)

    def run(self, seed: int, simulator: FleetSimulator,
            profiler: Any) -> FleetReport:
        return simulator.run(PlacementPolicy.OCS, profiler=profiler)

    def check(self, seed: int, report: FleetReport) -> tuple[int, list[str]]:
        """(work items, failures) of one seed run.

        The reconciliation residual covers the utilization identity too.
        """
        failures = []
        residual = reconciliation_residual(report)
        if residual > TOLERANCE:
            failures.append(f"reconciliation residual {residual:.3g}")
        if summary_digest(report.summary) != self.digest_for(seed):
            failures.append("summary digest differs from the recorded one")
        return int(report.summary["jobs_submitted"]), failures

    def record(self, seed: int) -> str:
        """The digest this seed's run produces now (for recording)."""
        simulator = self.setup(seed)
        return summary_digest(self.run(seed, simulator, None).summary)


class EdgeReplayWorkload(FleetWorkload):
    """Record, serialize and replay ``edge`` traces with observability on.

    Set-up records the trace and round-trips it through
    ``dumps_trace``/``loads_trace``.  The run replays it through
    ``FleetSimulator.from_trace`` with an :class:`ObsRecorder`
    attached, exports Chrome and JSONL text (in memory) and reloads
    the JSONL.
    """

    def __init__(self, name: str, seeds: dict[str, tuple[int, ...]]) -> None:
        super().__init__(name, "edge", seeds)
        self._direct: dict[int, str] = {}

    def setup(self, seed: int) -> fleet_trace.FleetTrace:
        trace = fleet_trace.record_trace(preset_config(self.preset),
                                         seed=seed)
        return fleet_trace.loads_trace(fleet_trace.dumps_trace(trace))

    def run(self, seed: int, trace: fleet_trace.FleetTrace,
            profiler: Any) -> tuple[FleetReport, str, ObsRecorder]:
        recorder = ObsRecorder()
        report = FleetSimulator.from_trace(trace).run(
            PlacementPolicy.OCS, recorder=recorder, profiler=profiler)
        chrome = obs_export.dumps_chrome_trace(recorder)
        reloaded = obs_export.loads_obs(obs_export.dumps_obs(recorder))
        return report, chrome, reloaded

    def _direct_summary(self, seed: int) -> str:
        """The un-replayed, unobserved run's summary JSON (cached)."""
        if seed not in self._direct:
            report = FleetSimulator(preset_config(self.preset),
                                    seed=seed).run(PlacementPolicy.OCS)
            self._direct[seed] = json.dumps(report.summary, sort_keys=True)
        return self._direct[seed]

    def check(self, seed: int, outputs: tuple[FleetReport, str, ObsRecorder]
              ) -> tuple[int, list[str]]:
        report, chrome, reloaded = outputs
        items, failures = super().check(seed, report)
        if json.dumps(report.summary, sort_keys=True) != \
                self._direct_summary(seed):
            failures.append("replayed summary differs from the direct run")
        try:
            obs_export.validate_chrome_trace(json.loads(chrome))
        except (ValueError, TraceError) as exc:
            failures.append(f"chrome export invalid: {exc}")
        if reloaded.num_records != report.obs.num_records:
            failures.append("JSONL reload lost records")
        return items, failures

    def record(self, seed: int) -> str:
        return summary_digest(self.run(seed, self.setup(seed),
                                       None)[0].summary)


#: The collectives: a ring all-reduce and the Figure 6 all-to-all pair.
#: The ring runs along the 4-long dimension of a 4x4x2 torus (8 rings,
#: 384 flows, about 0.4 s).  The 4x4x4 torus's ring takes about 3.5 s,
#: which leaves a 25-second run five rounds, too few for a steady
#: median (README.md, Workloads).
LINK_BANDWIDTH = 50e9
RING_BYTES = 1e6
ALLTOALL_BYTES = 1e4


class CollectivesWorkload:
    """Flow-level simulation of three collectives; no fleet code at all.

    Set-up builds the operation's topology.  ``simulate_*`` take a bare
    topology and build link capacities and routes themselves, so at
    this commit routing is part of the run.  A work item is one
    simulated flow.
    """

    #: Topology construction takes a fraction of a millisecond, so one
    #: round builds each topology several times and times the mean.
    setup_repeats = 9
    OPS = ("ring", "alltoall_torus", "alltoall_twisted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seeds = {seed_set: () for seed_set in SEED_SETS}
        self._recorded: dict[str, float] | None = None

    def ops(self, seed_set: str, seed: int) -> list[str]:
        """The three collectives, rotated by `seed` (inputs are fixed)."""
        shift = seed % len(self.OPS)
        return list(self.OPS[shift:] + self.OPS[:shift])

    def setup(self, op: str) -> Any:
        if op == "ring":
            return Torus3D((4, 4, 2))
        if op == "alltoall_torus":
            return Torus3D((2, 2, 4))
        return TwistedTorus3D((2, 2, 4), twists={2: (1, 0, 0)})

    def run(self, op: str, topology: Any, profiler: Any) -> Any:
        if op == "ring":
            return simcollectives.simulate_ring_allreduce(
                topology, RING_BYTES, LINK_BANDWIDTH, dim=0)
        return simcollectives.simulate_alltoall(topology, ALLTOALL_BYTES,
                                                LINK_BANDWIDTH)

    def expected_seconds(self, op: str) -> float:
        if op == "ring":
            return ring_allreduce_time(4, RING_BYTES, LINK_BANDWIDTH)
        if self._recorded is None:
            self._recorded = load_recorded()["collectives"]
        return self._recorded[op]

    def check(self, op: str, result: Any) -> tuple[int, list[str]]:
        """(flows, failures) of one collective.

        The twisted all-to-all must also beat the regular torus's
        recorded time, which that operation's own check pins.
        """
        expected = self.expected_seconds(op)
        error = abs(result.seconds - expected) / expected
        failures = [] if error <= TOLERANCE else \
            [f"{result.seconds!r}s is {error:.3g} off {expected!r}s"]
        if op == "alltoall_twisted" and \
                result.seconds >= self.expected_seconds("alltoall_torus"):
            failures.append("twisted all-to-all is not faster than the "
                            "regular torus")
        return result.flows, failures

    def record(self, op: str) -> float:
        return self.run(op, self.setup(op), None).seconds


WORKLOADS = {
    workload.name: workload for workload in (
        FleetWorkload("hyperscale", "hyperscale",
                      {"default": (0, 1, 2, 3),
                       "heldout": (100, 101, 102, 103)}),
        FleetWorkload("serve_surge", "serve_surge",
                      {"default": (0, 1, 2), "heldout": (100, 101, 102)}),
        CollectivesWorkload("collectives"),
        EdgeReplayWorkload("edge_replay",
                           {"default": (0, 1, 2), "heldout": (100, 101, 102)}),
    )
}
