"""Exhaustive topology + partitioning search (Section 4, Table 3).

The search walks every 512-chip slice shape and every whole-dimension
partitioning assignment, evaluating the LLM cost model — the automated
version of what the paper's auto-tuner and experts do by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.slicing import legal_block_shapes
from repro.errors import ConfigurationError
from repro.models.transformer import (GPT3_CONFIG, TransformerConfig)
from repro.parallelism.costmodel import (LLMCostParams, LLMStepCost,
                                         llm_step_cost)
from repro.parallelism.mapping import feasible_specs
from repro.parallelism.spec import PartitionSpec, Sharding

#: Table 3's searches run on 512-chip slices and keep a top-5 leaderboard.
SEARCH_CHIPS = 512
LEADERBOARD_SIZE = 5


@dataclass(frozen=True)
class CaseStudy:
    """One Table 3 row pair: a baseline pick and the paper's best."""

    name: str
    model: TransformerConfig
    global_batch: int
    baseline_shape: tuple[int, int, int]
    baseline_spec: PartitionSpec
    best_shape: tuple[int, int, int]
    best_spec: PartitionSpec
    paper_baseline_throughput: float   # seqs/sec
    paper_best_throughput: float

    @property
    def paper_gain(self) -> float:
        """The published improvement factor."""
        return self.paper_best_throughput / self.paper_baseline_throughput


# The internal ~250B-parameter LLM of Table 3's first case (sized so 512
# TPU v4 chips train it with pure model parallelism).
TABLE3_LLM_MODEL = TransformerConfig(
    name="LLM-internal", num_layers=80, d_model=16_384, num_heads=128,
    d_ff=65_536, seq_len=1024, vocab_size=32_000)

TABLE3_LLM = CaseStudy(
    name="LLM",
    model=TABLE3_LLM_MODEL,
    global_batch=256,
    baseline_shape=(4, 8, 16),
    baseline_spec=PartitionSpec(1, 1, 16, 32,
                                Sharding(activations="2D", weights="2D")),
    best_shape=(8, 8, 8),
    best_spec=PartitionSpec(1, 1, 64, 8,
                            Sharding(activations="1D", weights="2D")),
    paper_baseline_throughput=17.9,
    paper_best_throughput=41.3,
)

TABLE3_GPT3 = CaseStudy(
    name="GPT-3 pre-training",
    model=GPT3_CONFIG,
    global_batch=512,
    baseline_shape=(8, 8, 8),
    baseline_spec=PartitionSpec(8, 1, 8, 8,
                                Sharding(activations="2D", weights="2D")),
    best_shape=(4, 8, 16),
    best_spec=PartitionSpec(16, 4, 1, 8,
                            Sharding(activations="1D", weights="1D")),
    paper_baseline_throughput=21.0,
    paper_best_throughput=25.0,
)


@dataclass
class SearchResult:
    """Outcome of one exhaustive search."""

    case: CaseStudy
    baseline: LLMStepCost
    best: LLMStepCost
    evaluated: int = 0
    leaderboard: list[LLMStepCost] = field(default_factory=list)

    @property
    def gain(self) -> float:
        """best/baseline throughput (the paper's improvement column)."""
        return self.best.throughput_seqs / self.baseline.throughput_seqs


def search_best_configuration(case: CaseStudy,
                              params: LLMCostParams | None = None
                              ) -> SearchResult:
    """Evaluate every (shape, spec) pair for `SEARCH_CHIPS` chips.

    Returns the baseline evaluation, the best found, and a leaderboard.
    """
    params = params or LLMCostParams()
    baseline = llm_step_cost(case.model, case.baseline_shape,
                             case.baseline_spec, case.global_batch, params)
    candidates: list[LLMStepCost] = []
    evaluated = 0
    for shape in legal_block_shapes(SEARCH_CHIPS // 64):
        for spec in feasible_specs(shape):
            try:
                cost = llm_step_cost(case.model, shape, spec,
                                     case.global_batch, params)
            except ConfigurationError:
                continue
            evaluated += 1
            candidates.append(cost)
    if not candidates:
        raise ConfigurationError("no feasible configuration found")
    candidates.sort(key=lambda c: c.seconds)
    return SearchResult(case=case, baseline=baseline, best=candidates[0],
                        evaluated=evaluated,
                        leaderboard=candidates[:LEADERBOARD_SIZE])
