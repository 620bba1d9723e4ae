"""SparseCore: the embedding substrate (paper Section 3).

A functional distributed embedding engine (numpy lookups, sharding,
deduplication, all-to-all exchange, Adagrad updates) plus a timing model
of the SC hardware: 16 tiles (Fetch / 8-wide scVPU / Flush, 2.5 MiB Spmem
each) and five cross-channel units executing data-dependent CISC
instructions (Figure 7).
"""

from repro.sparsecore.features import (CategoricalFeature, FeatureBatch,
                                       synthetic_batch)
from repro.sparsecore.table import EmbeddingTable
from repro.sparsecore.sharding import (ShardingPlan, ShardingStrategy,
                                       plan_for_tables)
from repro.sparsecore.dedup import dedup_ids, dedup_savings
from repro.sparsecore.tile import SCTile
from repro.sparsecore.crosschannel import CrossChannelUnits
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.timing import SCTimingParams
from repro.sparsecore.executor import (DistributedEmbedding, EmbeddingStepTime,
                                       embedding_step_time)
from repro.sparsecore.isa import (EmbeddingStepShape, Instruction, Opcode,
                                  SequencerModel, generate_step_program,
                                  step_overhead_seconds)
from repro.sparsecore.imbalance import (ImbalanceStudy, LoadStats,
                                        dedup_study, imbalance_vs_chips,
                                        shard_loads, zipf_ids)

__all__ = [
    "CategoricalFeature", "FeatureBatch", "synthetic_batch",
    "EmbeddingTable",
    "ShardingPlan", "ShardingStrategy", "plan_for_tables",
    "dedup_ids", "dedup_savings",
    "SCTile", "CrossChannelUnits", "SparseCore", "SCTimingParams",
    "DistributedEmbedding", "EmbeddingStepTime", "embedding_step_time",
    "Instruction", "Opcode", "EmbeddingStepShape", "SequencerModel",
    "generate_step_program", "step_overhead_seconds",
    "LoadStats", "ImbalanceStudy", "zipf_ids", "shard_loads",
    "dedup_study", "imbalance_vs_chips",
]
