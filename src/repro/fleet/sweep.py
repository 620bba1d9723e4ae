"""Multi-seed fleet sweeps fanned across worker processes.

One fleet run answers "what happened on seed 0"; the paper-style
claims (OCS goodput advantage, queue-wait distributions) are properties
of the *seed ensemble*.  :func:`run_sweep` runs the same config under
one policy for many seeds, one process per core by default — each run
is an independent, fully deterministic simulation, so the sweep is
embarrassingly parallel and its output is reproducible regardless of
worker count or completion order: results are keyed and sorted by
seed, and each seed's summary is byte-identical to a single
`FleetSimulator(config, seed=s).run(policy)` in-process.

The worker entry point is a module-level function taking only
picklable arguments (a frozen :class:`~repro.fleet.config.FleetConfig`
and primitives), so the pool works under any multiprocessing start
method.  Deployment-drain windows are derived *inside* the worker from
the config's own `deploy_schedule` — exactly as the CLI derives them —
so presets like `deploy_week` sweep with their schedule applied.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Sequence

from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.presets import preset_config
from repro.fleet.scenario import schedule_for
from repro.fleet.simulator import FleetSimulator


@dataclass(frozen=True, slots=True)
class SweepResult:
    """One seed's flat summary dict, tagged with its seed."""

    seed: int
    summary: dict


def _run_one(task: tuple[FleetConfig, int, str]
             ) -> tuple[int, dict[str, float]]:
    """Worker entry: one (config, seed, policy) run.

    Module-level (not a closure or lambda) so it pickles under the
    spawn start method as well as fork.
    """
    config, seed, policy_value = task
    windows = schedule_for(config.deploy_schedule, config).windows \
        if config.deploy_schedule else ()
    report = FleetSimulator(config, seed=seed, windows=windows).run(
        PlacementPolicy(policy_value))
    return seed, report.summary


def run_sweep(config: FleetConfig | str, seeds: Sequence[int], *,
              policy: PlacementPolicy = PlacementPolicy.OCS,
              processes: int | None = None) -> list[SweepResult]:
    """Run `config` under `policy` for every seed; sorted by seed.

    `config` may be a preset name.  `processes=None` uses one worker
    per core; any worker count — default or explicit — is clamped to
    the seed count, since extra workers could only sit idle while
    costing pool spawn time.  A resolved count of 1 (either requested
    or a single-seed sweep) runs inline in this process, bypassing
    multiprocessing entirely — no pool spawn overhead for tiny sweeps,
    and handy under debuggers and in sandboxes that forbid fork.
    """
    if isinstance(config, str):
        config = preset_config(config)
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"sweep seeds repeat: {seeds}")
    if any(seed < 0 for seed in seeds):
        raise ConfigurationError(f"sweep seeds must be >= 0: {seeds}")
    if processes is not None and processes < 1:
        raise ConfigurationError(
            f"sweep needs processes >= 1, got {processes}")
    tasks = [(config, seed, policy.value) for seed in seeds]
    if processes is None:
        processes = os.cpu_count() or 1
    processes = min(processes, len(tasks))
    if processes <= 1:
        pairs = [_run_one(task) for task in tasks]
    else:
        with Pool(processes=processes) as pool:
            pairs = pool.map(_run_one, tasks)
    pairs.sort(key=lambda pair: pair[0])
    return [SweepResult(seed=seed, summary=summary)
            for seed, summary in pairs]


def sweep_mean(results: Sequence[SweepResult]) -> dict[str, float]:
    """Per-metric mean across the ensemble (stable key order).

    Every seed's summary carries the same key set (the telemetry
    module's stable schema), so the mean is taken key-by-key in the
    first result's order.
    """
    if not results:
        return {}
    count = len(results)
    return {key: sum(result.summary[key] for result in results) / count
            for key in results[0].summary}
