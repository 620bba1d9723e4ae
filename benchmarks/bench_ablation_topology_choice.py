"""Ablation benchmark: topology choice vs partitioning choice (Table 3).

Not a paper artifact — an ablation quantifying how much of the
Table 3 gain the OCS's topology freedom supplies on top of auto-tuned
partitioning.
"""

from repro.parallelism.ablation import topology_ablation
from repro.parallelism.search import TABLE3_GPT3, TABLE3_LLM


def test_ablation_topology_choice(benchmark):
    outcomes = benchmark.pedantic(
        lambda: [topology_ablation(case)
                 for case in (TABLE3_LLM, TABLE3_GPT3)],
        rounds=1, iterations=1)
    print()
    for outcome in outcomes:
        print(f"{outcome.case_name}: baseline "
              f"{outcome.baseline_throughput:.1f} seqs/s | "
              f"fixed-topology best {outcome.fixed_topology_best:.1f} "
              f"(gain {outcome.partitioning_gain:.2f}x) | "
              f"free-topology best {outcome.free_topology_best:.1f} "
              f"(gain {outcome.full_gain:.2f}x) | "
              f"topology contributes {outcome.topology_contribution:.2f}x")
    for outcome in outcomes:
        assert outcome.full_gain >= outcome.partitioning_gain - 1e-9
        assert outcome.topology_contribution >= 1.0 - 1e-9
