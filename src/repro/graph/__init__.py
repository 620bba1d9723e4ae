"""Graph-op-level simulation: IR, GSPMD partitioning, event-driven execution.

The reproduction of the paper's own evaluation vehicle — "an internal
event-driven simulator that operates at the TensorFlow graph operation
level" (Section 7.3) — plus the GSPMD sharding machinery (Xu et al.
[63]) behind Table 3's 1D/2D partitioning options and the
communication/computation overlap transform (Wang et al. [59]) behind
Section 7.10's scaling claim.

Typical use::

    from repro.graph import (DeviceMesh, MeshAxis, partition, simulate,
                             transformer_step_graph)

    mesh = DeviceMesh((8, 8, 8), [MeshAxis("data", 8, (0,)),
                                  MeshAxis("model1", 64, (1, 2))])
    graph, annotations = transformer_step_graph(LLM_CONFIG, global_batch=512)
    program = partition(graph, mesh, annotations)
    trace = simulate(program)
    print(trace.summary())
"""

from repro.graph.builders import (TransformerShardingPlan,
                                  transformer_step_graph)
from repro.graph.graph import ComputationGraph
from repro.graph.mesh import DeviceMesh, MeshAxis
from repro.graph.ops import (AllGatherOp, AllReduceOp, AllToAllOp,
                             CollectiveOp, ElementwiseOp, EmbeddingLookupOp,
                             FusionOp, InputOp, MatMulOp, Op, ParameterOp)
from repro.graph.overlap import (decompose_all, decompose_pair,
                                 overlap_speedup, overlappable_pairs)
from repro.graph.pipeline import (PipelineConfig, PipelineOutcome,
                                  PipelineSchedule,
                                  analytic_bubble_fraction,
                                  simulate_pipeline)
from repro.graph.memory import (MemoryEstimate, TPUV4_HBM_CAPACITY,
                                estimate_memory)
from repro.graph.schedule import (ChipTimingModel, GraphScheduler,
                                  TPUV3_TIMING, TPUV4_TIMING, simulate)
from repro.graph.spmd import ShardedGraph, partition
from repro.graph.tensor import (ShardingSpec, TensorSpec, local_shape,
                                replicated)
from repro.graph.trace import ExecutionTrace, OpRecord

__all__ = [
    "ComputationGraph", "Op", "InputOp", "ParameterOp", "MatMulOp",
    "ElementwiseOp", "EmbeddingLookupOp", "FusionOp", "CollectiveOp",
    "AllReduceOp", "AllGatherOp", "AllToAllOp",
    "TensorSpec", "ShardingSpec", "replicated", "local_shape",
    "DeviceMesh", "MeshAxis",
    "partition", "ShardedGraph",
    "ChipTimingModel", "TPUV4_TIMING", "TPUV3_TIMING", "GraphScheduler",
    "simulate",
    "ExecutionTrace", "OpRecord",
    "decompose_pair", "decompose_all", "overlappable_pairs",
    "overlap_speedup",
    "PipelineConfig", "PipelineOutcome", "PipelineSchedule",
    "analytic_bubble_fraction", "simulate_pipeline",
    "MemoryEstimate", "TPUV4_HBM_CAPACITY", "estimate_memory",
    "transformer_step_graph", "TransformerShardingPlan",
]
