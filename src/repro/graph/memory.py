"""Per-chip HBM residency of a partitioned program (Section 7.10).

"TPU v4 has less HBM capacity than A100; could that limit LLM
performance?  Our autoML LLM configuration search (Section 4) considers
HBM capacity ... The HBM capacity could be a limiting factor in some
cases, but typically TPU v4 enables larger models to be partitioned
across more chips."

This module is that feasibility check: given a :class:`ShardedGraph`,
it accounts the per-chip bytes of

* parameters (sharded as GSPMD placed them),
* gradients and optimizer state (Adam: two moments per weight, the
  paper's cost model uses 10 bytes/parameter-state in total),
* saved forward activations (everything the backward pass re-reads),

and answers whether the configuration fits the chip's 32 GiB (Table 4)
— the constraint the Table 3 search and the pipeline schedules
(1F1B's residency cap) exist to satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graph.ops import (CollectiveOp, ElementwiseOp, FusionOp, InputOp,
                             MatMulOp, Op, ParameterOp)
from repro.graph.spmd import ShardedGraph
from repro.graph.tensor import local_shape
from repro.units import GIB

# Table 4: 32 GiB HBM2 per TPU v4 chip.
TPUV4_HBM_CAPACITY = 32 * GIB


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-chip HBM residency breakdown, in bytes.

    Attributes:
        parameter_bytes: sharded weights.
        gradient_bytes: one gradient per weight (same dtype).
        optimizer_bytes: Adam moments in fp32 (8 bytes per weight).
        activation_bytes: forward activations saved for backward.
    """

    parameter_bytes: float
    gradient_bytes: float
    optimizer_bytes: float
    activation_bytes: float

    @property
    def total_bytes(self) -> float:
        """Everything resident at the backward-pass peak."""
        return (self.parameter_bytes + self.gradient_bytes
                + self.optimizer_bytes + self.activation_bytes)

    def utilization(self, capacity: float = TPUV4_HBM_CAPACITY) -> float:
        """Fraction of HBM the program occupies."""
        return self.total_bytes / capacity

    def summary(self) -> str:
        """One-line breakdown in GiB."""
        return (f"params {self.parameter_bytes / GIB:.2f} + "
                f"grads {self.gradient_bytes / GIB:.2f} + "
                f"opt {self.optimizer_bytes / GIB:.2f} + "
                f"acts {self.activation_bytes / GIB:.2f} = "
                f"{self.total_bytes / GIB:.2f} GiB")


def _local_bytes(sharded: ShardedGraph, op: Op) -> float:
    shape = local_shape(op.output, sharded.shardings[op.name],
                        sharded.mesh.axis_sizes)
    return math.prod(shape) * op.output.dtype_bytes


def _is_saved_activation(sharded: ShardedGraph, op: Op) -> bool:
    """Forward tensors the backward pass re-reads stay resident.

    Heuristic matching the builders: an op output is a saved activation
    when some *later* consumer is a matmul or elementwise (the backward
    ops re-reading it through a transpose also count, because the
    transpose is a zero-copy fusion).
    """
    if isinstance(op, (ParameterOp, CollectiveOp)):
        return False
    if isinstance(op, (InputOp, MatMulOp, ElementwiseOp, FusionOp)):
        return bool(sharded.graph.consumers(op.name))
    return bool(sharded.graph.consumers(op.name))


def estimate_memory(sharded: ShardedGraph, *,
                    optimizer_bytes_per_param: float = 8.0,
                    activation_liveness: float = 0.5
                    ) -> MemoryEstimate:
    """Account the per-chip HBM residency of a partitioned program.

    Args:
        sharded: the partitioned program.
        optimizer_bytes_per_param: fp32 Adam moments = 8; SGD = 0.
        activation_liveness: fraction of forward activation bytes alive
            at the backward peak.  1.0 is the no-rematerialization worst
            case; production compilers recompute cheap ops, and 0.5 is a
            reasonable default (the paper's cost model folds this into
            its "activation memory factor").

    Returns:
        The per-chip :class:`MemoryEstimate`.
    """
    if not 0 <= activation_liveness <= 1:
        raise ConfigurationError("liveness must be in [0, 1]")
    if optimizer_bytes_per_param < 0:
        raise ConfigurationError("optimizer bytes must be >= 0")
    params = 0.0
    param_elements = 0.0
    activations = 0.0
    for op in sharded.graph.ops():
        if isinstance(op, ParameterOp):
            local = _local_bytes(sharded, op)
            params += local
            param_elements += local / op.output.dtype_bytes
        elif isinstance(op, FusionOp):
            continue  # zero-copy views
        elif _is_saved_activation(sharded, op):
            activations += _local_bytes(sharded, op)
    return MemoryEstimate(
        parameter_bytes=params,
        gradient_bytes=params,
        optimizer_bytes=param_elements * optimizer_bytes_per_param,
        activation_bytes=activations * activation_liveness)
