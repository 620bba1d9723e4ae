"""Distributed embedding execution: functional and timed (Section 3).

Two layers:

* :class:`DistributedEmbedding` — a *functional* engine: tables are
  sharded over chips, lookups are deduplicated, rows gathered on their
  owner chips, exchanged all-to-all, and combined.  Results match a
  single-machine reference lookup bit-for-bit, and the engine records the
  per-chip traffic it generated (rows gathered, bytes exchanged), which
  feeds the timing layer.  Backward applies Adagrad updates through the
  same sharding.

* :func:`embedding_step_time` — the per-step time model behind Figures 8
  and 9: max(HBM gather/flush, scVPU combine, all-to-all transfer) plus
  fixed sequencer overheads.  The all-to-all term is bisection-limited,
  which is why 3D-torus TPU v4 beats 2D-torus TPU v3 and why twisting
  helps embedding-heavy models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShardingError
from repro.sparsecore.dedup import dedup_ids
from repro.sparsecore.features import FeatureBatch
from repro.sparsecore.sharding import ShardingPlan, ShardingStrategy
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.table import EmbeddingTable
from repro.sparsecore.timing import SCTimingParams, TPUV4_SC
from repro.topology.properties import theoretical_bisection_scaling


@dataclass
class TrafficStats:
    """Per-step traffic the functional engine observed."""

    rows_gathered: np.ndarray       # per chip
    alltoall_bytes: np.ndarray      # per chip, sent
    lookups_before_dedup: int = 0
    lookups_after_dedup: int = 0

    @property
    def dedup_savings(self) -> float:
        """Fraction of gathers eliminated by dedup."""
        if self.lookups_before_dedup == 0:
            return 0.0
        return 1.0 - self.lookups_after_dedup / self.lookups_before_dedup

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-chip gathered rows (1.0 = perfectly balanced)."""
        mean = self.rows_gathered.mean()
        if mean == 0:
            return 1.0
        return float(self.rows_gathered.max() / mean)


@dataclass
class DistributedEmbedding:
    """Sharded, deduplicated embedding lookups over a slice of chips."""

    tables: dict[str, EmbeddingTable]
    feature_to_table: dict[str, str]
    plan: ShardingPlan
    last_traffic: TrafficStats | None = None

    def __post_init__(self) -> None:
        for feature, table in self.feature_to_table.items():
            if table not in self.tables:
                raise ShardingError(
                    f"feature {feature!r} maps to unknown table {table!r}")

    @property
    def num_chips(self) -> int:
        """Chips in the slice."""
        return self.plan.num_chips

    # -- forward ----------------------------------------------------------------

    def forward(self, batches: dict[str, FeatureBatch]) -> dict[str, np.ndarray]:
        """Distributed lookup for every feature batch.

        Returns per-feature activations of shape (batch, dim); records
        traffic in `last_traffic`.
        """
        n = self.num_chips
        rows_gathered = np.zeros(n)
        alltoall_bytes = np.zeros(n)
        before = after = 0
        outputs: dict[str, np.ndarray] = {}
        for feature_name, batch in batches.items():
            table = self.tables[self.feature_to_table[feature_name]]
            strategy = self.plan.strategy_of(table.name)
            dedup = dedup_ids(batch.ids)
            # `batches` preserves the caller's feature order, which is
            # fixed per model definition, so the accumulations below
            # are deterministic despite riding a dict view.
            before += dedup.num_original  # detlint: ignore[D005] int count
            after += dedup.num_unique  # detlint: ignore[D005] int count
            if strategy is ShardingStrategy.REPLICATED:
                # Local everywhere; examples spread over chips evenly.
                counts = np.bincount(dedup.unique_ids % n, minlength=n)
                # detlint: ignore[D005] fixed feature order (see above)
                rows_gathered += dedup.num_unique / n  # local gathers share
            elif strategy in (ShardingStrategy.ROW, ShardingStrategy.TABLE):
                owners = self.plan.owners_of_ids(table.name, dedup.unique_ids)
                counts = np.bincount(owners, minlength=n)
                # detlint: ignore[D005] fixed feature order (see above)
                rows_gathered += counts
                # Gathered rows return to the examples' chips: all bytes
                # except the (1/n)th that stay local.
                row_bytes = table.dim * 4
                # detlint: ignore[D005] fixed feature order (see above)
                alltoall_bytes += counts * row_bytes * (n - 1) / n
            elif strategy is ShardingStrategy.COLUMN:
                # Every chip gathers its column slice of every unique row.
                # detlint: ignore[D005] fixed feature order (see above)
                rows_gathered += dedup.num_unique / n
                row_bytes = table.dim * 4
                # detlint: ignore[D005] fixed feature order (see above)
                alltoall_bytes += (dedup.num_unique * row_bytes / n
                                   * (n - 1) / n)
            else:  # pragma: no cover - enum is exhaustive
                raise ShardingError(f"unknown strategy {strategy}")
            outputs[feature_name] = table.lookup(batch)
        self.last_traffic = TrafficStats(
            rows_gathered=rows_gathered,
            alltoall_bytes=alltoall_bytes,
            lookups_before_dedup=before,
            lookups_after_dedup=after,
        )
        return outputs

    # -- backward ----------------------------------------------------------------

    def backward(self, batches: dict[str, FeatureBatch],
                 grads: dict[str, np.ndarray], *,
                 learning_rate: float = 0.01) -> None:
        """Scatter per-example activation grads into table updates."""
        for feature_name, batch in batches.items():
            table = self.tables[self.feature_to_table[feature_name]]
            grad = np.asarray(grads[feature_name], dtype=np.float64)
            if grad.shape != (batch.batch_size, table.dim):
                raise ShardingError(
                    f"{feature_name}: grad shape {grad.shape} != "
                    f"({batch.batch_size}, {table.dim})")
            valencies = batch.valencies()
            segments = np.repeat(np.arange(batch.batch_size), valencies)
            row_grads = grad[segments]
            if batch.feature.combiner == "mean":
                row_grads = row_grads / np.maximum(
                    valencies[segments], 1)[:, None]
            table.apply_gradients(batch.ids, row_grads,
                                  learning_rate=learning_rate)


# --------------------------------------------------------------------------
# Timing model (Figures 8, 9)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingWorkload:
    """A DLRM-style embedding workload (Figure 8's caption model)."""

    global_batch: int
    num_features: int = 300
    num_tables: int = 150
    embedding_dim: int = 100
    avg_valency: float = 15.0
    dedup_fraction: float = 0.35    # gathers eliminated by dedup
    bytes_per_element: int = 4


@dataclass(frozen=True)
class EmbeddingStepTime:
    """Per-step embedding time breakdown on one slice."""

    gather_seconds: float
    combine_seconds: float
    network_seconds: float
    overhead_seconds: float

    @property
    def seconds(self) -> float:
        """Phases overlap (dataflow); the slowest pipe plus fixed costs."""
        return max(self.gather_seconds, self.combine_seconds,
                   self.network_seconds) + self.overhead_seconds

    @property
    def bottleneck(self) -> str:
        """Which pipe binds."""
        named = {"gather": self.gather_seconds,
                 "combine": self.combine_seconds,
                 "network": self.network_seconds}
        return max(named, key=named.get)  # type: ignore[arg-type]


def torus_bisection_bandwidth(num_chips: int, torus_dims: int,
                              link_bandwidth: float) -> float:
    """One-direction bisection bandwidth of a balanced torus."""
    links = theoretical_bisection_scaling(num_chips, torus_dims)
    return links * link_bandwidth


def embedding_step_time(workload: EmbeddingWorkload, num_chips: int, *,
                        sc: SCTimingParams = TPUV4_SC,
                        torus_dims: int = 3,
                        link_bandwidth: float = 50e9,
                        include_backward: bool = True) -> EmbeddingStepTime:
    """Estimate one training step's embedding time on a slice.

    The all-to-all term uses the balanced torus's bisection bandwidth:
    per-chip all-to-all throughput ~= 4 * bisection / N (uniform traffic,
    half crosses the cut, both directions available).
    """
    core = SparseCore(sc)
    n = num_chips
    lookups = workload.global_batch * workload.num_features * workload.avg_valency
    unique_rows = lookups * (1.0 - workload.dedup_fraction)
    rows_per_chip = unique_rows / n
    row_bytes = workload.embedding_dim * workload.bytes_per_element

    gather = core.gather_time(int(rows_per_chip), row_bytes)
    if include_backward:
        gather += core.flush_time(int(rows_per_chip), row_bytes)
    combine = core.combine_time(int(rows_per_chip), workload.embedding_dim)
    dedup = core.dedup_time(int(lookups / n))
    combine = combine + dedup

    # Forward activations + backward gradients cross the network.
    activation_bytes = (workload.global_batch * workload.num_features
                        * row_bytes / n) * (n - 1) / n
    passes = 2 if include_backward else 1
    if n > 1:
        bisection = torus_bisection_bandwidth(n, torus_dims, link_bandwidth)
        per_chip_throughput = 4.0 * bisection / n
        network = passes * activation_bytes / per_chip_throughput
    else:
        network = 0.0

    overhead = core.overhead_time(workload.num_tables)
    return EmbeddingStepTime(gather_seconds=gather,
                             combine_seconds=combine,
                             network_seconds=network,
                             overhead_seconds=overhead)
