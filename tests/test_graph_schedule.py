"""Tests for repro.graph.schedule and repro.graph.trace."""

import pytest

from repro.errors import SimulationError
from repro.graph.builders import TransformerShardingPlan, transformer_step_graph
from repro.graph.graph import ComputationGraph
from repro.graph.mesh import DeviceMesh, MeshAxis
from repro.graph.ops import (AllReduceOp, ElementwiseOp, InputOp, MatMulOp,
                             ParameterOp)
from repro.graph.schedule import (ChipTimingModel, GraphScheduler,
                                  TPUV4_TIMING, simulate)
from repro.graph.spmd import partition
from repro.graph.tensor import ShardingSpec, TensorSpec
from repro.graph.trace import ExecutionTrace, OpRecord
from repro.models.transformer import TransformerConfig

# TPU v3 (Table 4: 123 TFLOPS, 900 GB/s), a slower chip to compare with.
TPUV3_TIMING = ChipTimingModel(peak_flops=123e12, hbm_bandwidth=900e9,
                               sc_bandwidth=600e9, vpu_flops=7.7e12)

SMALL = TransformerConfig(name="small", num_layers=1, d_model=1024,
                          num_heads=16, d_ff=2048, seq_len=128)


def mesh():
    return DeviceMesh((4, 4, 4), [MeshAxis("data", 4, (0,)),
                                  MeshAxis("model", 16, (1, 2))])


def sharded_step():
    g, ann = transformer_step_graph(
        SMALL, global_batch=16, include_head=False,
        plan=TransformerShardingPlan(data="data", model="model"))
    return partition(g, mesh(), ann)


class TestChipTimingModel:
    def test_matmul_is_roofline_max(self):
        chip = ChipTimingModel(peak_flops=100e12, mxu_efficiency=0.5,
                               hbm_bandwidth=1e12, op_overhead=0.0)
        op = MatMulOp(name="m", inputs=("a", "b"),
                      output=TensorSpec((8, 8)), m=8, k=8, n=8)
        compute_bound = chip.compute_seconds(op, 1e12, 1e3)
        assert compute_bound == pytest.approx(1e12 / 50e12)
        memory_bound = chip.compute_seconds(op, 1.0, 1e12)
        assert memory_bound == pytest.approx(1.0)

    def test_source_ops_are_free(self):
        chip = ChipTimingModel()
        op = InputOp(name="x", output=TensorSpec((8,)))
        assert chip.compute_seconds(op, 0.0, 0.0) == 0.0

    def test_tpuv3_slower_than_v4(self):
        op = MatMulOp(name="m", inputs=("a", "b"),
                      output=TensorSpec((8, 8)), m=8, k=8, n=8)
        v4 = TPUV4_TIMING.compute_seconds(op, 1e12, 1e6)
        v3 = TPUV3_TIMING.compute_seconds(op, 1e12, 1e6)
        assert v3 > v4


class TestScheduler:
    def test_all_ops_execute_exactly_once(self):
        sharded = sharded_step()
        trace = simulate(sharded)
        assert len(trace.records) == len(sharded.graph)
        assert len({r.name for r in trace.records}) == len(sharded.graph)

    def test_trace_is_valid(self):
        trace = simulate(sharded_step())
        trace.validate()  # engine exclusivity + dependency order

    def test_engines_partition_op_kinds(self):
        trace = simulate(sharded_step())
        for record in trace.records:
            if record.kind in ("all_reduce", "all_gather", "all_to_all"):
                assert record.engine.startswith("ici:")
            elif record.kind == "embedding_lookup":
                assert record.engine == "sparsecore"
            else:
                assert record.engine == "tensorcore"

    def test_serial_mode_puts_collectives_on_tensorcore(self):
        trace = simulate(sharded_step(), overlap_comm=False)
        assert trace.engines == ["tensorcore"]

    def test_overlap_no_slower_than_serial(self):
        sharded = sharded_step()
        overlap = simulate(sharded, overlap_comm=True).makespan
        serial = simulate(sharded, overlap_comm=False).makespan
        assert overlap <= serial + 1e-12

    def test_pure_chain_makespan_is_sum(self):
        g = ComputationGraph()
        g.add(InputOp(name="x", output=TensorSpec((256, 256))))
        g.add(ParameterOp(name="w", output=TensorSpec((256, 256))))
        g.add(MatMulOp(name="m1", inputs=("x", "w"),
                       output=TensorSpec((256, 256)), m=256, k=256, n=256))
        g.add(MatMulOp(name="m2", inputs=("m1", "w"),
                       output=TensorSpec((256, 256)), m=256, k=256, n=256))
        simple_mesh = DeviceMesh((4, 4, 4), [MeshAxis("data", 64, (0, 1, 2))])
        sharded = partition(g, simple_mesh, {})
        scheduler = GraphScheduler(sharded)
        trace = scheduler.run()
        expected = sum(scheduler.duration_of(op) for op in sharded.graph)
        assert trace.makespan == pytest.approx(expected)

    def test_independent_collectives_on_distinct_axes_overlap(self):
        g = ComputationGraph()
        spec = TensorSpec((1024, 1024))
        g.add(InputOp(name="x", output=spec))
        g.add(AllReduceOp(name="ar1", inputs=("x",), output=spec,
                          mesh_axis="data", comm_bytes=1e9))
        g.add(AllReduceOp(name="ar2", inputs=("x",), output=spec,
                          mesh_axis="model", comm_bytes=1e9))
        sharded = partition(g, mesh(), {})
        scheduler = GraphScheduler(sharded)
        trace = scheduler.run()
        d1 = scheduler.duration_of(sharded.graph.op("ar1"))
        d2 = scheduler.duration_of(sharded.graph.op("ar2"))
        assert trace.makespan == pytest.approx(max(d1, d2))

    def test_same_axis_collectives_serialize(self):
        g = ComputationGraph()
        spec = TensorSpec((1024, 1024))
        g.add(InputOp(name="x", output=spec))
        g.add(AllReduceOp(name="ar1", inputs=("x",), output=spec,
                          mesh_axis="data", comm_bytes=1e9))
        g.add(AllReduceOp(name="ar2", inputs=("x",), output=spec,
                          mesh_axis="data", comm_bytes=1e9))
        sharded = partition(g, mesh(), {})
        scheduler = GraphScheduler(sharded)
        trace = scheduler.run()
        d1 = scheduler.duration_of(sharded.graph.op("ar1"))
        d2 = scheduler.duration_of(sharded.graph.op("ar2"))
        assert trace.makespan == pytest.approx(d1 + d2)

    def test_faster_chip_shortens_step(self):
        sharded = sharded_step()
        v4 = simulate(sharded, chip=TPUV4_TIMING).makespan
        v3 = simulate(sharded, chip=TPUV3_TIMING).makespan
        assert v3 > v4


class TestExecutionTrace:
    def make_trace(self):
        return ExecutionTrace(records=[
            OpRecord("a", "matmul", "tensorcore", 0.0, 1.0),
            OpRecord("b", "all_reduce", "ici:data", 0.5, 2.0),
            OpRecord("c", "matmul", "tensorcore", 1.0, 3.0),
        ], dependencies={"a": (), "b": ("a",), "c": ("a",)})

    def test_makespan_and_busy(self):
        trace = self.make_trace()
        assert trace.makespan == 3.0
        assert trace.busy_seconds("tensorcore") == pytest.approx(3.0)
        assert trace.utilization("tensorcore") == pytest.approx(1.0)

    def test_exposed_comm(self):
        trace = self.make_trace()
        # comm [0.5, 2.0] fully covered by compute [0, 1] + [1, 3].
        assert trace.exposed_comm_seconds() == pytest.approx(0.0)

    def test_exposed_comm_when_compute_idle(self):
        trace = ExecutionTrace(records=[
            OpRecord("a", "matmul", "tensorcore", 0.0, 1.0),
            OpRecord("b", "all_reduce", "ici:data", 1.0, 2.0),
        ])
        assert trace.exposed_comm_seconds() == pytest.approx(1.0)

    def test_mfu(self):
        trace = self.make_trace()
        assert trace.mfu(3e12, 1e12) == pytest.approx(1.0)
        assert trace.mfu(1.5e12, 1e12) == pytest.approx(0.5)

    def test_validate_rejects_engine_overlap(self):
        trace = ExecutionTrace(records=[
            OpRecord("a", "matmul", "tensorcore", 0.0, 2.0),
            OpRecord("b", "matmul", "tensorcore", 1.0, 3.0),
        ])
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validate_rejects_dependency_violation(self):
        trace = ExecutionTrace(records=[
            OpRecord("a", "matmul", "tensorcore", 0.0, 2.0),
            OpRecord("b", "matmul", "ici:data", 0.0, 1.0),
        ], dependencies={"b": ("a",)})
        with pytest.raises(SimulationError):
            trace.validate()

    def test_timeline_renders(self):
        text = self.make_trace().timeline(width=40)
        assert "tensorcore" in text
        assert "ici:data" in text

    def test_summary_renders(self):
        assert "makespan" in self.make_trace().summary()

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.makespan == 0.0
        assert trace.timeline() == "(empty trace)"
        assert trace.mfu(1.0, 1.0) == 0.0
