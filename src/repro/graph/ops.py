"""Operation IR for the graph-level simulator.

Ops are the vocabulary of the paper's own evaluation tool ("an internal
event-driven simulator that operates at the TensorFlow graph operation
level", Section 7.3): dense matmuls for the TensorCore, elementwise
vector work for the VPU, embedding lookups for the SparseCore, and the
collectives the GSPMD partitioner inserts.  Every op knows its global
FLOPs; the SPMD pass scales those to per-chip quantities and prices
each op's per-chip memory traffic from its operand shapes, and the
scheduler turns them into time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError
from repro.graph.tensor import TensorSpec


@dataclass(frozen=True)
class Op:
    """One graph node: named, with named inputs and one output tensor.

    Attributes:
        name: unique node id within the graph.
        inputs: names of producer nodes, in positional order.
        output: logical (global) output tensor (a scalar by default so
            subclasses can declare defaulted fields; real ops always
            pass one).
    """

    name: str
    inputs: tuple[str, ...] = ()
    output: TensorSpec = TensorSpec(())
    kind: ClassVar[str] = "op"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("op name must be non-empty")

    def flops(self) -> float:
        """Global floating-point work of the op."""
        return 0.0

    @property
    def is_collective(self) -> bool:
        """True for communication ops (priced by the network, not compute)."""
        return isinstance(self, CollectiveOp)


@dataclass(frozen=True)
class InputOp(Op):
    """A per-step input (activations, labels, feature ids)."""

    kind: ClassVar[str] = "input"


@dataclass(frozen=True)
class ParameterOp(Op):
    """A trainable weight tensor."""

    kind: ClassVar[str] = "parameter"


@dataclass(frozen=True)
class MatMulOp(Op):
    """Dense matmul ``[batch, m, k] x [k, n] -> [batch, m, n]``.

    `batch` folds any leading dimensions (including attention heads); the
    MXU sees `batch` independent m*k*n contractions.

    `batch_local` marks activation-by-activation contractions whose
    operands are sharded identically along folded batch dimensions
    (attention scores and context): the contraction stays inside each
    shard, so the partitioner scales FLOPs by the shard fraction and
    inserts no collectives.
    """

    m: int = 1
    k: int = 1
    n: int = 1
    batch: int = 1
    batch_local: bool = False
    kind: ClassVar[str] = "matmul"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.inputs) != 2:
            raise ConfigurationError(
                f"matmul {self.name!r} needs exactly 2 inputs")
        for extent in (self.m, self.k, self.n, self.batch):
            if extent < 1:
                raise ConfigurationError(
                    f"matmul {self.name!r} extents must be >= 1")

    def flops(self) -> float:
        """2*m*k*n multiply-accumulates per batch element."""
        return 2.0 * self.batch * self.m * self.k * self.n


@dataclass(frozen=True)
class ElementwiseOp(Op):
    """VPU work: activation functions, norms, residuals, softmax pieces."""

    flops_per_element: float = 1.0
    kind: ClassVar[str] = "elementwise"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.flops_per_element < 0:
            raise ConfigurationError(
                f"elementwise {self.name!r} flops_per_element must be >= 0")

    def flops(self) -> float:
        """flops_per_element over the output extent."""
        return self.flops_per_element * self.output.num_elements


@dataclass(frozen=True)
class EmbeddingLookupOp(Op):
    """SparseCore gather: `lookups` rows of width `width` from a table.

    Inputs are (table, ids).  Combining multivalent lookups is a sum,
    counted at one FLOP per gathered element.
    """

    vocab: int = 1
    width: int = 1
    lookups: int = 1
    kind: ClassVar[str] = "embedding_lookup"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.inputs) != 2:
            raise ConfigurationError(
                f"embedding lookup {self.name!r} needs (table, ids) inputs")
        for extent in (self.vocab, self.width, self.lookups):
            if extent < 1:
                raise ConfigurationError(
                    f"embedding lookup {self.name!r} extents must be >= 1")

    def flops(self) -> float:
        """One add per gathered element (multivalent combining)."""
        return float(self.lookups * self.width)


@dataclass(frozen=True)
class CollectiveOp(Op):
    """Base for communication ops, priced per mesh axis.

    Attributes:
        mesh_axis: the parallelism axis the collective spans.
        comm_bytes: bytes each chip contributes (the `num_bytes` of
            :class:`~repro.network.collectives.AxisGeometry`'s prices).
    """

    mesh_axis: str = ""
    comm_bytes: float = 0.0
    kind: ClassVar[str] = "collective"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.mesh_axis:
            raise ConfigurationError(
                f"collective {self.name!r} needs a mesh axis")
        if self.comm_bytes < 0:
            raise ConfigurationError(
                f"collective {self.name!r} comm_bytes must be >= 0")


@dataclass(frozen=True)
class AllReduceOp(CollectiveOp):
    """Sum partial results over a mesh axis."""

    kind: ClassVar[str] = "all_reduce"


@dataclass(frozen=True)
class AllGatherOp(CollectiveOp):
    """Unshard one dimension over a mesh axis."""

    kind: ClassVar[str] = "all_gather"


@dataclass(frozen=True)
class AllToAllOp(CollectiveOp):
    """Variable-length all-to-all exchange (embedding vectors, resharding)."""

    kind: ClassVar[str] = "all_to_all"


@dataclass(frozen=True)
class FusionOp(Op):
    """Zero-cost glue: concatenates/renames chunk results after a
    decomposition transform so downstream consumers keep one producer."""

    kind: ClassVar[str] = "fusion"
