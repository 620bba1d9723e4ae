"""Embedding-table partitioning across chips (Section 3.3).

Three model-parallel strategies plus replication:

* ROW      — split the vocabulary: id i lives on chip i % num_chips;
* COLUMN   — split the width: chip c owns dim columns [c*d/N, (c+1)*d/N);
* TABLE    — whole tables placed on single chips (round robin);
* REPLICATED — every chip holds a copy (data parallelism; best for small
  tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import ShardingError
from repro.sparsecore.table import EmbeddingTable


class ShardingStrategy(Enum):
    """How one table spreads over the slice."""

    ROW = "row"
    COLUMN = "column"
    TABLE = "table"
    REPLICATED = "replicated"


SMALL_TABLE_REPLICATION_BYTES = 4 << 20  # replicate tables under 4 MiB


@dataclass
class ShardingPlan:
    """Placement decisions for a set of tables over `num_chips` chips."""

    num_chips: int
    strategies: dict[str, ShardingStrategy] = field(default_factory=dict)
    table_home: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_chips < 1:
            raise ShardingError("need at least one chip")

    def strategy_of(self, table_name: str) -> ShardingStrategy:
        """Strategy assigned to a table."""
        if table_name not in self.strategies:
            raise ShardingError(f"no strategy for table {table_name!r}")
        return self.strategies[table_name]

    # -- placement queries ---------------------------------------------------

    def owners_of_ids(self, table_name: str, ids: np.ndarray) -> np.ndarray:
        """Vectorized owner computation for ROW sharding."""
        strategy = self.strategy_of(table_name)
        ids = np.asarray(ids, dtype=np.int64)
        if strategy is ShardingStrategy.ROW:
            return ids % self.num_chips
        if strategy is ShardingStrategy.TABLE:
            return np.full(len(ids), self.table_home[table_name],
                           dtype=np.int64)
        raise ShardingError(
            f"{table_name}: owners_of_ids applies to ROW/TABLE strategies")


def plan_for_tables(tables: list[EmbeddingTable], num_chips: int, *,
                    replicate_small: bool = True,
                    default: ShardingStrategy = ShardingStrategy.ROW
                    ) -> ShardingPlan:
    """Heuristic plan: replicate small tables, ROW-shard the rest.

    Mirrors the paper's guidance: "for small embedding tables, replication
    across all chips is better for performance" (Section 3.3).
    """
    plan = ShardingPlan(num_chips=num_chips)
    next_home = 0
    for table in tables:
        if replicate_small and table.bytes <= SMALL_TABLE_REPLICATION_BYTES:
            plan.strategies[table.name] = ShardingStrategy.REPLICATED
            continue
        plan.strategies[table.name] = default
        if default is ShardingStrategy.TABLE:
            plan.table_home[table.name] = next_home
            next_home = (next_home + 1) % num_chips
    return plan
