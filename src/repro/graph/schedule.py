"""Event-driven execution of a partitioned graph on one TPU v4 chip.

This is the reproduction of the paper's own evaluation vehicle: "an
internal event-driven simulator that operates at the TensorFlow graph
operation level" (Section 7.3).  Engines:

* ``tensorcore`` — matmuls and elementwise ops, priced by a roofline
  blend of MXU FLOPs and HBM traffic;
* ``sparsecore`` — embedding lookups (separate cores, so dense compute,
  SC work, and ICI transfers parallelize — Section 3.5);
* ``ici:<axis>`` — one channel per mesh axis.  Axes occupy disjoint
  torus dimensions (Section 2.7), so collectives on different axes run
  concurrently, while collectives on the same axis serialize.

Ops dispatch when their inputs complete; each engine runs one op at a
time in topological priority order.  With ``overlap_comm=False`` the
collectives are forced onto the tensorcore engine, which is the classic
"communication blocks compute" baseline the overlap transform
(:mod:`repro.graph.overlap`, Wang et al. [59]) is measured against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graph.mesh import DeviceMesh
from repro.graph.ops import (CollectiveOp, ElementwiseOp, EmbeddingLookupOp,
                             FusionOp, InputOp, MatMulOp, Op, ParameterOp)
from repro.graph.spmd import ShardedGraph
from repro.graph.trace import ExecutionTrace, OpRecord
from repro.sim.events import Simulator


@dataclass(frozen=True)
class ChipTimingModel:
    """First-order per-op timing for one chip (TPU v4 defaults, Table 4).

    Attributes:
        peak_flops: MXU peak (bf16).
        mxu_efficiency: sustained fraction of peak for dense matmuls.
        vpu_flops: peak elementwise rate (128-lane VPU, 16 ALUs/lane,
            2 TensorCores at 1.05 GHz, 2 flops/ALU).
        hbm_bandwidth: HBM bytes/second (Table 4: 1200 GB/s).
        sc_bandwidth: SparseCore-visible gather/scatter bandwidth; SC
            tiles see HBM through 16 channels at somewhat lower
            efficiency for small accesses.
        op_overhead: fixed per-op dispatch cost (XLA fusion leaves a
            few thousand ops per step, each with launch overhead).
    """

    peak_flops: float = 275e12
    mxu_efficiency: float = 0.6
    vpu_flops: float = 8.6e12
    hbm_bandwidth: float = 1200e9
    sc_bandwidth: float = 800e9
    op_overhead: float = 1e-6

    def compute_seconds(self, op: Op, local_flops: float,
                        local_bytes: float) -> float:
        """Duration of one compute op on its engine."""
        if isinstance(op, (InputOp, ParameterOp, FusionOp)):
            return 0.0
        if isinstance(op, MatMulOp):
            flop_time = local_flops / (self.peak_flops * self.mxu_efficiency)
            memory_time = local_bytes / self.hbm_bandwidth
            return max(flop_time, memory_time) + self.op_overhead
        if isinstance(op, EmbeddingLookupOp):
            gather_time = local_bytes / self.sc_bandwidth
            flop_time = local_flops / self.vpu_flops
            return max(gather_time, flop_time) + self.op_overhead
        if isinstance(op, ElementwiseOp):
            flop_time = local_flops / self.vpu_flops
            memory_time = local_bytes / self.hbm_bandwidth
            return max(flop_time, memory_time) + self.op_overhead
        raise ConfigurationError(
            f"no timing rule for compute op kind {op.kind!r}")


TPUV4_TIMING = ChipTimingModel()


class GraphScheduler:
    """Dependency-driven executor over a :class:`ShardedGraph`."""

    def __init__(self, sharded: ShardedGraph, *,
                 chip: ChipTimingModel = TPUV4_TIMING,
                 overlap_comm: bool = True) -> None:
        self.sharded = sharded
        self.mesh: DeviceMesh = sharded.mesh
        self.chip = chip
        self.overlap_comm = overlap_comm

    # -- engine assignment ---------------------------------------------------------

    def engine_of(self, op: Op) -> str:
        """Engine an op occupies while executing."""
        if isinstance(op, CollectiveOp):
            if not self.overlap_comm:
                return "tensorcore"
            return f"ici:{op.mesh_axis}"
        if isinstance(op, EmbeddingLookupOp):
            return "sparsecore"
        return "tensorcore"

    def duration_of(self, op: Op) -> float:
        """Execution time of one op."""
        if isinstance(op, CollectiveOp):
            return self.mesh.collective_time(op.kind, op.mesh_axis,
                                             op.comm_bytes)
        return self.chip.compute_seconds(
            op, self.sharded.local_flops[op.name],
            self.sharded.local_bytes[op.name])

    # -- simulation -------------------------------------------------------------------

    def run(self) -> ExecutionTrace:
        """Execute the graph; returns the validated trace."""
        graph = self.sharded.graph
        graph.validate()
        sim = Simulator()
        trace = ExecutionTrace(
            dependencies={op.name: op.inputs for op in graph.ops()})
        priority = {op.name: i for i, op in enumerate(graph.ops())}
        waiting = {op.name: len(op.inputs) for op in graph.ops()}
        ready: dict[str, list[tuple[int, str]]] = {}
        engine_free: dict[str, bool] = {}

        def enqueue(op: Op) -> None:
            engine = self.engine_of(op)
            heapq.heappush(ready.setdefault(engine, []),
                           (priority[op.name], op.name))
            engine_free.setdefault(engine, True)
            dispatch(engine)

        def dispatch(engine: str) -> None:
            if not engine_free.get(engine) or not ready.get(engine):
                return
            _, name = heapq.heappop(ready[engine])
            op = graph.op(name)
            engine_free[engine] = False
            start = sim.now
            duration = self.duration_of(op)
            def finish(op: Op = op, engine: str = engine,
                       start: float = start) -> None:
                trace.records.append(OpRecord(
                    name=op.name, kind=op.kind, engine=engine,
                    start=start, end=sim.now))
                engine_free[engine] = True
                for consumer in graph.consumers(op.name):
                    waiting[consumer] -= 1
                    if waiting[consumer] == 0:
                        enqueue(graph.op(consumer))
                dispatch(engine)
            sim.schedule(duration, finish)

        for op in graph.ops():
            if waiting[op.name] == 0:
                enqueue(op)
        sim.run(max_events=10 * len(graph) + 16)
        if len(trace.records) != len(graph):
            missing = len(graph) - len(trace.records)
            raise ConfigurationError(
                f"{missing} ops never executed — cyclic or disconnected graph")
        trace.validate()
        return trace


def simulate(sharded: ShardedGraph, *, chip: ChipTimingModel = TPUV4_TIMING,
             overlap_comm: bool = True) -> ExecutionTrace:
    """One-call helper: schedule a partitioned graph and return its trace."""
    return GraphScheduler(sharded, chip=chip,
                          overlap_comm=overlap_comm).run()
