"""Ablation benchmark: sustained MFU over a 50-day run (abstract claim).

The abstract: OCS flexibility and availability "allows a large language
model to train at an average of ~60% of peak FLOPS/second" — PaLM
sustained 57.8% over 50 days.  This ablation runs that training run on
the fleet engine: one 48-block (3K-chip) job with 50 days of work on a
64-block pod whose hosts fail at a 120-day MTBF and take 2 h to repair.
The job checkpoints at the Young/Daly cadence and pays an 8-minute
restore after every interruption.  Under OCS it restarts on any healthy
blocks; on a statically cabled pod it needs a free, healthy 3x4x4-block
cuboid and otherwise waits for a repair.  Sustained MFU is the tuned
step MFU times the job's useful seconds over its wall time.
"""

import pytest

from repro.core.scheduler import PlacementPolicy
from repro.fleet import FleetConfig, FleetSimulator
from repro.fleet.workload import PRIORITY_PROD, FleetJob, TraceWorkload
from repro.units import DAY, HOUR

#: Model FLOPS utilization of one training step on a tuned
#: configuration (the Table 3 class); interruptions only lower it.
STEP_MFU = 0.67

#: PaLM's measured sustained MFU over its 50-day run.
PALM_MFU = 0.578


def fifty_day_run() -> dict[str, dict[str, float]]:
    """Interruptions, finish day and sustained MFU, by policy."""
    config = FleetConfig(num_pods=1, blocks_per_pod=64,
                         mean_repair_seconds=2 * HOUR,
                         horizon_seconds=100 * DAY)
    job = FleetJob(job_id=0, kind="train", model_type="Transformer",
                   shape=(12, 16, 16), arrival=0.0,
                   work_seconds=50 * DAY, priority=PRIORITY_PROD)
    simulator = FleetSimulator(config, seed=0,
                               workload=TraceWorkload((job,)))
    outcomes = {}
    for policy in PlacementPolicy:
        (record,) = simulator.run(policy).job_records
        assert record.completed, policy
        wall = record.completed_at - record.arrival
        outcomes[policy.value] = {
            "interruptions": record.interruptions,
            "finish_day": record.completed_at / DAY,
            "sustained_mfu": STEP_MFU * record.useful_seconds / wall,
        }
    return outcomes


def test_ablation_training_run(benchmark):
    outcomes = benchmark.pedantic(fifty_day_run, rounds=1, iterations=1)
    print()
    for name, outcome in outcomes.items():
        print(f"{name}: {outcome['interruptions']} interruptions, "
              f"finished on day {outcome['finish_day']:.1f}, sustained "
              f"MFU {outcome['sustained_mfu']:.1%}")
    print(f"paper: PaLM {PALM_MFU:.1%} over 50 days, abstract "
          f"'~60% of peak'")
    assert outcomes["ocs"]["sustained_mfu"] == pytest.approx(PALM_MFU,
                                                             abs=0.05)
    assert outcomes["ocs"]["sustained_mfu"] > \
        outcomes["static"]["sustained_mfu"]
