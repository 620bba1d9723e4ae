"""Ablation: how much of Table 3's gain comes from topology choice?

The OCS lets users pick the slice *shape*; the compiler stack picks the
*partitioning*.  This ablation splits Table 3's improvement into:

* partitioning-only — search specs but freeze the baseline topology
  (what a static machine's users could do);
* topology+partitioning — the full search (what the OCS enables).

The gap between the two is the performance value of reconfigurability,
separate from auto-tuning; `benchmarks/bench_ablation_topology_choice.py`
asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.parallelism.costmodel import (LLMCostParams, LLMStepCost,
                                         llm_step_cost)
from repro.parallelism.mapping import feasible_specs
from repro.parallelism.search import CaseStudy, search_best_configuration


@dataclass(frozen=True)
class AblationOutcome:
    """Gains with and without topology freedom."""

    case_name: str
    baseline_throughput: float
    fixed_topology_best: float
    free_topology_best: float

    @property
    def partitioning_gain(self) -> float:
        """Best/baseline with the topology frozen."""
        return self.fixed_topology_best / self.baseline_throughput

    @property
    def full_gain(self) -> float:
        """Best/baseline with topology free (the Table 3 number)."""
        return self.free_topology_best / self.baseline_throughput

    @property
    def topology_contribution(self) -> float:
        """Extra factor attributable to picking the topology."""
        return self.free_topology_best / self.fixed_topology_best


def best_on_fixed_topology(case: CaseStudy,
                           shape: tuple[int, int, int],
                           params: LLMCostParams | None = None
                           ) -> LLMStepCost:
    """Best partitioning when the slice shape cannot change."""
    params = params or LLMCostParams()
    best: LLMStepCost | None = None
    for spec in feasible_specs(shape):
        try:
            cost = llm_step_cost(case.model, shape, spec,
                                 case.global_batch, params)
        except ConfigurationError:
            continue
        if best is None or cost.seconds < best.seconds:
            best = cost
    if best is None:
        raise ConfigurationError(
            f"no feasible partitioning for {case.name} on {shape}")
    return best


def topology_ablation(case: CaseStudy,
                      params: LLMCostParams | None = None
                      ) -> AblationOutcome:
    """Split the Table 3 gain into partitioning vs topology parts."""
    params = params or LLMCostParams()
    baseline = llm_step_cost(case.model, case.baseline_shape,
                             case.baseline_spec, case.global_batch, params)
    fixed = best_on_fixed_topology(case, case.baseline_shape, params)
    free = search_best_configuration(case, params).best
    return AblationOutcome(
        case_name=case.name,
        baseline_throughput=baseline.throughput_seqs,
        fixed_topology_best=fixed.throughput_seqs,
        free_topology_best=free.throughput_seqs,
    )
