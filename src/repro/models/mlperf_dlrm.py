"""Is MLPerf's DLRM benchmark realistic?  (Section 7.9, Figure 14.)

The paper's answer is no, for three measurable reasons:

1. MLPerf DLRM caps the global batch at 64k for model quality, so a
   128-chip system leaves only 128 examples per SparseCore (128 chips
   x 4 SCs x 128 = 64k) — weak scaling starves the SCs.
2. It has 26 univalent features versus hundreds of (multivalent)
   features in production models, so the fixed per-batch costs — "HBM
   latency and CISC instruction generation time on the SC core
   sequencer" — are amortised over far less work.
3. Its dense side is tiny (<2M FP32 weights vs DLRM0's 137M Int8), so
   nothing else hides the sparse overheads either.

This module builds both models from the same cost pieces — the
sequencer program of :mod:`repro.sparsecore.isa`, the SparseCore gather
model, and the exact ECMP all-to-all on the slice's torus or mesh
(:class:`~repro.network.collectives.AxisGeometry`) — and shows MLPerf DLRM's
useful scaling stop at ~128 chips while the production shape keeps
scaling to 1024 (Figure 11's DLRM0/DLRM1 curves).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.slicing import cube_shape
from repro.errors import ConfigurationError
from repro.network.collectives import AxisGeometry
from repro.sparsecore.isa import (EmbeddingStepShape, SequencerModel,
                                  TPUV4_SEQUENCER, generate_step_program)
from repro.sparsecore.sparsecore import SparseCore
from repro.sparsecore.timing import SCTimingParams, TPUV4_SC
from repro.topology.builder import supports_wraparound

#: Incremental scaling efficiency below which adding chips stops being
#: "useful scaling" (Section 7.9).
EFFICIENCY_FLOOR = 0.5


@dataclass(frozen=True)
class RecommenderBenchmark:
    """Shape of one recommendation workload for the scaling study.

    Attributes:
        name: display name.
        global_batch_cap: quality-imposed maximum global batch (None
            when the model tolerates per-chip scaling, like production
            DLRMs at 2048-4096 per chip).
        per_chip_batch: examples per chip when uncapped.
        num_features: categorical features per example.
        num_tables: embedding tables the features map onto.
        avg_valency: mean ids per multivalent feature (1.0 = univalent).
        embedding_width: embedding vector length.
        embedding_dtype_bytes: bytes per embedding element.
        dense_flops_per_example: fwd+bwd FLOPs of the dense towers.
    """

    name: str
    global_batch_cap: int | None
    per_chip_batch: int
    num_features: int
    num_tables: int
    avg_valency: float
    embedding_width: int = 128
    embedding_dtype_bytes: int = 4
    dense_flops_per_example: float = 0.0

    def __post_init__(self) -> None:
        if self.num_features < 1 or self.num_tables < 1:
            raise ConfigurationError("features and tables must be >= 1")
        if self.avg_valency < 1.0:
            raise ConfigurationError("valency must be >= 1")
        if self.per_chip_batch < 1:
            raise ConfigurationError("per_chip_batch must be >= 1")

    def global_batch(self, num_chips: int) -> int:
        """Global batch at a system size, honouring the quality cap."""
        uncapped = self.per_chip_batch * num_chips
        if self.global_batch_cap is None:
            return uncapped
        return min(uncapped, self.global_batch_cap)

    @property
    def multivalent(self) -> bool:
        """True when combiners are needed."""
        return self.avg_valency > 1.0


# Section 7.9's two subjects.  MLPerf DLRM: Criteo-style, 26 univalent
# features, 64k batch cap, ~2M FP32 dense weights.  The production
# shape matches DLRM0 (Figures 8/9/17): hundreds of features onto ~150
# tables, 1-100 valency (mean ~10), 137M Int8 dense weights.
MLPERF_DLRM = RecommenderBenchmark(
    name="MLPerf-DLRM", global_batch_cap=64 * 1024, per_chip_batch=16384,
    num_features=26, num_tables=26, avg_valency=1.0,
    dense_flops_per_example=3 * 2 * 2e6)

PRODUCTION_DLRM = RecommenderBenchmark(
    name="DLRM0-like", global_batch_cap=None, per_chip_batch=16384,
    num_features=300, num_tables=150, avg_valency=10.0,
    dense_flops_per_example=3 * 2 * 137e6)


@dataclass(frozen=True)
class ScalingPoint:
    """One system size in the weak-scaling study."""

    num_chips: int
    global_batch: int
    per_sc_batch: float
    step_seconds: float
    overhead_seconds: float
    examples_per_second: float

    @property
    def overhead_fraction(self) -> float:
        """Share of the step lost to fixed per-batch overheads."""
        return self.overhead_seconds / self.step_seconds


@dataclass(frozen=True)
class RecommenderCostModel:
    """Prices one benchmark step on a TPU v4 slice.

    Combines four terms, echoing Section 3.4's performance attributes:
    HBM gather bandwidth, dense compute, the all-to-all exchange, and
    the fixed sequencer/latency overhead.
    """

    sc_params: SCTimingParams = TPUV4_SC
    sequencer: SequencerModel = TPUV4_SEQUENCER
    link_bandwidth: float = 50e9
    peak_flops: float = 275e12
    mxu_efficiency: float = 0.5
    dedup_factor: float = 0.7   # surviving fraction after dedup

    def step_time(self, bench: RecommenderBenchmark,
                  num_chips: int) -> ScalingPoint:
        """Step time of `bench` on `num_chips` chips (most cubical slice)."""
        batch = bench.global_batch(num_chips)
        per_chip = batch / num_chips
        scs = self.sc_params.sparsecores_per_chip
        per_sc = per_chip / scs

        # Gather: rows per chip after dedup, through the SC HBM share.
        rows = (per_chip * bench.num_features * bench.avg_valency
                * self.dedup_factor)
        row_bytes = bench.embedding_width * bench.embedding_dtype_bytes
        core = SparseCore(self.sc_params)
        gather = core.gather_time(max(1, round(rows)), row_bytes)
        flush = core.flush_time(max(1, round(rows)), row_bytes)

        # All-to-all: each chip exchanges its combined vectors.  Dedup
        # shrinks network traffic too (Section 3.4).
        vector_bytes = (per_chip * bench.num_features
                        * bench.embedding_width
                        * bench.embedding_dtype_bytes
                        * self.dedup_factor)
        shape = cube_shape(num_chips)
        geometry = AxisGeometry(ring_sizes=shape,
                                link_bandwidth=self.link_bandwidth,
                                wrap=supports_wraparound(shape))
        exchange = 2 * geometry.alltoall(vector_bytes)  # fwd + bwd

        # Dense towers, data-parallel.
        dense = (bench.dense_flops_per_example * per_chip
                 / (self.peak_flops * self.mxu_efficiency))

        # Fixed overhead: the CISC program is per-table, not per-example.
        shape_ = EmbeddingStepShape(
            num_tables=bench.num_tables,
            features_per_table=bench.num_features / bench.num_tables,
            ids_per_feature=max(per_sc, 1.0) * bench.avg_valency,
            multivalent=bench.multivalent)
        overhead = self.sequencer.fixed_overhead_seconds(
            generate_step_program(shape_))

        # SC work overlaps dense compute (separate cores); the exchange
        # overlaps neither end-to-end, and the fixed overhead is serial.
        step = max(gather + flush, dense) + exchange + overhead
        return ScalingPoint(num_chips=num_chips, global_batch=batch,
                            per_sc_batch=per_sc, step_seconds=step,
                            overhead_seconds=overhead,
                            examples_per_second=batch / step)


def scaling_curve(bench: RecommenderBenchmark,
                  chip_counts: list[int] | None = None, *,
                  model: RecommenderCostModel | None = None
                  ) -> list[ScalingPoint]:
    """Weak-scaling curve over the Figure 11 chip counts."""
    counts = chip_counts or [16, 32, 64, 128, 256, 512, 1024]
    model = model or RecommenderCostModel()
    return [model.step_time(bench, chips) for chips in counts]


def useful_scaling_limit(curve: list[ScalingPoint]) -> int:
    """Largest size whose incremental scaling efficiency clears the floor.

    Efficiency at point i is the throughput gained over the previous
    point divided by the chip-count growth; once it falls below the
    floor, adding chips is no longer "useful scaling" in the Section
    7.9 sense.
    """
    if not curve:
        raise ConfigurationError("empty scaling curve")
    limit = curve[0].num_chips
    for prev, cur in zip(curve, curve[1:]):
        gain = cur.examples_per_second / prev.examples_per_second
        chips = cur.num_chips / prev.num_chips
        if (gain - 1.0) / (chips - 1.0) < EFFICIENCY_FLOOR:
            break
        limit = cur.num_chips
    return limit

