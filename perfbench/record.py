"""Write ``recorded.json``: the outputs every benchmark run is checked against.

Usage (from the repository root, only when the benchmark is defined or
its seed lists change)::

    python3 -O -B perfbench/record.py

Records, for each fleet workload, the sha256 summary digest of every
seed in its default and held-out lists, and the simulated time of each
all-to-all collective.  A change that claims to make the simulators
faster must reproduce these outputs unchanged, so it must not re-run
this script.
"""

from __future__ import annotations

import json

from run import _import_repro


def main() -> None:
    _import_repro()
    from workloads import RECORDED, SEED_SETS, WORKLOADS, CollectivesWorkload
    digests: dict[str, dict[str, str]] = {}
    collectives: dict[str, float] = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, CollectivesWorkload):
            for op in workload.OPS:
                if op != "ring":  # checked against the analytic model
                    collectives[op] = workload.record(op)
            continue
        seeds = sorted({seed for seed_set in SEED_SETS
                        for seed in workload.seeds[seed_set]})
        digests[name] = {str(seed): workload.record(seed) for seed in seeds}
        print(f"{name}: {len(seeds)} seeds recorded")
    RECORDED.write_text(json.dumps(
        {"digests": digests, "collectives": collectives},
        indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
