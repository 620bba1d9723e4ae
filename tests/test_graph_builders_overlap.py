"""Tests for repro.graph.builders and repro.graph.overlap."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.builders import (TransformerShardingPlan,
                                  transformer_step_graph)
from repro.graph.mesh import DeviceMesh, MeshAxis
from repro.graph.ops import AllReduceOp, AllToAllOp, MatMulOp
from repro.graph.overlap import (decompose_all, decompose_pair,
                                 overlap_speedup, overlappable_pairs)
from repro.graph.schedule import ChipTimingModel, simulate
from repro.graph.spmd import partition
from repro.models.transformer import TransformerConfig

SMALL_LLM = TransformerConfig(name="tiny", num_layers=4, d_model=1024,
                              num_heads=16, d_ff=4096, seq_len=256)


def mesh():
    return DeviceMesh((4, 4, 4), [MeshAxis("data", 4, (0,)),
                                  MeshAxis("model1", 16, (1, 2))])


def tiny_program(num_layers=2, include_head=False):
    g, ann = transformer_step_graph(SMALL_LLM, global_batch=64,
                                    num_layers=num_layers,
                                    include_head=include_head)
    return partition(g, mesh(), ann)


class TestTransformerBuilder:
    def test_flops_match_analytic_law(self):
        """Matmul FLOPs/token ~ 6 * params (the Kaplan law the paper
        uses for MFU), within the tolerance set by attention terms."""
        g, _ = transformer_step_graph(SMALL_LLM, global_batch=64,
                                      include_head=False)
        tokens = 64 * SMALL_LLM.seq_len
        weight_flops = 6 * SMALL_LLM.num_layers * SMALL_LLM.params_per_layer
        matmul = sum(op.flops() for op in g.ops() if isinstance(op, MatMulOp))
        attention = matmul / tokens - weight_flops
        assert matmul / tokens >= weight_flops
        # Attention adds 8*seq*d_model per layer-token: fwd QK^T + AV
        # plus the two backward contractions, each 2*seq*d_model.
        assert attention == pytest.approx(
            SMALL_LLM.num_layers * 8 * SMALL_LLM.seq_len * SMALL_LLM.d_model,
            rel=0.01)

    def test_megatron_collective_structure(self):
        """2 fwd + 2 bwd model all-reduces per layer; one data
        all-reduce per weight."""
        sharded = tiny_program(num_layers=2)
        ars = [op for op in sharded.graph.collectives()
               if isinstance(op, AllReduceOp)]
        by_axis = {}
        for op in ars:
            by_axis.setdefault(op.mesh_axis, []).append(op)
        assert len(by_axis["model1"]) == 2 * 4
        assert len(by_axis["data"]) == 2 * 4  # 4 weights per layer

    def test_head_adds_embedding_alltoall(self):
        sharded = tiny_program(num_layers=1, include_head=True)
        a2a = [op for op in sharded.graph.collectives()
               if isinstance(op, AllToAllOp)]
        assert len(a2a) == 1
        assert a2a[0].mesh_axis == "model1"

    def test_data_parallel_only_plan(self):
        g, ann = transformer_step_graph(
            SMALL_LLM, global_batch=64, num_layers=2,
            plan=TransformerShardingPlan(data="data", model=None))
        flat = DeviceMesh((4, 4, 4), [MeshAxis("data", 4, (0,)),
                                      MeshAxis("model1", 16, (1, 2))])
        sharded = partition(g, flat, ann)
        axes = {op.mesh_axis for op in sharded.graph.collectives()}
        assert axes == {"data"}  # only gradient all-reduces

    def test_rejects_zero_layers(self):
        with pytest.raises(ConfigurationError):
            transformer_step_graph(SMALL_LLM, global_batch=64, num_layers=0)

    def test_per_chip_flops_balance(self):
        sharded = tiny_program(num_layers=2)
        ratio = sharded.graph.total_flops() / sharded.per_chip_flops()
        # Perfectly partitioned: per-chip work = global / 64 chips.
        assert ratio == pytest.approx(64, rel=0.05)

    def test_simulates_and_validates(self):
        trace = simulate(tiny_program(num_layers=2))
        trace.validate()
        assert trace.makespan > 0


class TestOverlap:
    def test_pairs_found_in_transformer(self):
        sharded = tiny_program(num_layers=2)
        pairs = overlappable_pairs(sharded)
        assert pairs
        for collective, matmul in pairs:
            assert isinstance(sharded.graph.op(matmul), MatMulOp)

    def test_decompose_preserves_flops_and_bytes(self):
        sharded = tiny_program(num_layers=2)
        collective, matmul = overlappable_pairs(sharded)[0]
        split = decompose_pair(sharded, collective, matmul, chunks=4)
        assert sum(split.local_flops.values()) == pytest.approx(
            sum(sharded.local_flops.values()))
        orig = sum(op.comm_bytes for op in sharded.graph.collectives())
        new = sum(op.comm_bytes for op in split.graph.collectives())
        assert new == pytest.approx(orig)

    def test_decompose_keeps_names_for_consumers(self):
        sharded = tiny_program(num_layers=2)
        collective, matmul = overlappable_pairs(sharded)[0]
        split = decompose_pair(sharded, collective, matmul, chunks=4)
        assert matmul in split.graph
        assert collective in split.graph
        split.graph.validate()

    def test_decomposed_no_slower_without_overheads(self):
        """With zero per-op overhead, chunked pipelining cannot regress."""
        chip = ChipTimingModel(op_overhead=0.0)
        ideal_mesh = DeviceMesh((4, 4, 4),
                                [MeshAxis("data", 4, (0,)),
                                 MeshAxis("model1", 16, (1, 2))],
                                alpha=0.0)
        g, ann = transformer_step_graph(SMALL_LLM, global_batch=64,
                                        num_layers=2, include_head=False)
        sharded = partition(g, ideal_mesh, ann)
        base = simulate(sharded, chip=chip).makespan
        split = decompose_all(sharded, chunks=4)
        piped = simulate(split, chip=chip).makespan
        assert piped <= base * 1.001

    def test_overlap_speedup_ordering(self):
        times = overlap_speedup(tiny_program(num_layers=2), chunks=4)
        assert times["serial"] >= times["overlap"] - 1e-12
        # Per-op dispatch overhead bounds how much chunking can cost on
        # a comm-light graph; it must stay within that overhead budget.
        assert times["decomposed"] <= times["serial"] * 1.25

    def test_rejects_non_adjacent_pair(self):
        sharded = tiny_program(num_layers=2)
        collectives = sharded.graph.collectives()
        matmuls = [op.name for op in sharded.graph.ops()
                   if isinstance(op, MatMulOp)]
        with pytest.raises(ConfigurationError):
            decompose_pair(sharded, collectives[0].name,
                           "definitely-not-adjacent"
                           if "definitely-not-adjacent" in matmuls
                           else matmuls[0], chunks=2)

    def test_rejects_bad_chunks(self):
        sharded = tiny_program(num_layers=2)
        collective, matmul = overlappable_pairs(sharded)[0]
        with pytest.raises(ConfigurationError):
            decompose_pair(sharded, collective, matmul, chunks=0)
