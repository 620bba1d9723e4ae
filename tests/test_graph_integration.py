"""Integration tests: the graph simulator against the machine model.

These tie the new graph-op layer to the rest of the library: slices
carved from the 4096-chip machine provide the topology, the mesh maps
parallelism axes onto it, GSPMD partitions real model graphs, and the
event-driven trace must stay consistent with the closed-form collective
models everything else uses.
"""

import pytest

from repro import TPUv4Supercomputer
from repro.graph import (DeviceMesh, MeshAxis, TPUV4_TIMING,
                         dlrm_step_graph, partition, simulate,
                         transformer_step_graph)
from repro.graph.builders import DLRMGraphConfig
from repro.graph.overlap import overlap_speedup
from repro.graph.schedule import GraphScheduler
from repro.models.transformer import LLM_CONFIG, TransformerConfig
from repro.network.collectives import ring_allreduce_time

TINY = TransformerConfig(name="tiny", num_layers=2, d_model=1024,
                         num_heads=16, d_ff=4096, seq_len=256)


def mesh_for_slice(shape, data_dim=0):
    """A data x model mesh over a machine slice's torus shape."""
    model_dims = tuple(d for d in range(3) if d != data_dim)
    model_size = shape[model_dims[0]] * shape[model_dims[1]]
    return DeviceMesh(shape, [
        MeshAxis("data", shape[data_dim], (data_dim,)),
        MeshAxis("model1", model_size, model_dims)])


class TestMachineToTrace:
    def test_slice_shape_drives_the_simulation(self):
        machine = TPUv4Supercomputer()
        slice_ = machine.create_slice((4, 4, 8))
        mesh = mesh_for_slice(slice_.topology.shape)
        graph, annotations = transformer_step_graph(TINY, global_batch=64)
        program = partition(graph, mesh, annotations)
        trace = simulate(program)
        trace.validate()
        assert trace.makespan > 0
        machine.release(slice_)

    def test_bigger_model_axis_means_cheaper_compute(self):
        graph, annotations = transformer_step_graph(TINY, global_batch=64)
        small = partition(graph, mesh_for_slice((4, 4, 4)), annotations)
        big = partition(graph, mesh_for_slice((4, 8, 8)), annotations)
        assert big.per_chip_flops() < small.per_chip_flops()

    def test_per_chip_flops_track_chip_count(self):
        graph, annotations = transformer_step_graph(TINY, global_batch=64)
        for shape in ((4, 4, 4), (4, 4, 8), (4, 8, 8)):
            program = partition(graph, mesh_for_slice(shape), annotations)
            chips = shape[0] * shape[1] * shape[2]
            ratio = graph.total_flops() / program.per_chip_flops()
            # Attention batch-local terms parallelize perfectly; small
            # deviations come only from rounding in annotated shards.
            assert ratio == pytest.approx(chips, rel=0.05)


class TestConsistencyWithClosedForms:
    def test_gradient_allreduce_matches_collectives_module(self):
        """The scheduler's price for a data-axis all-reduce must match
        the closed-form single-ring model used everywhere else."""
        mesh = DeviceMesh((8, 1, 1), [MeshAxis("data", 8, (0,))],
                          alpha=0.0)
        from repro.graph.builders import TransformerShardingPlan
        graph, annotations = transformer_step_graph(
            TINY, global_batch=64, num_layers=1, include_head=False,
            plan=TransformerShardingPlan(data="data", model=None))
        program = partition(graph, mesh, annotations)
        scheduler = GraphScheduler(program)
        gradient_ars = [op for op in program.graph.collectives()
                        if op.mesh_axis == "data"]
        assert gradient_ars
        for op in gradient_ars:
            expected = ring_allreduce_time(8, op.comm_bytes, 50e9)
            assert scheduler.duration_of(op) == pytest.approx(expected)

    def test_makespan_at_least_critical_engine(self):
        mesh = mesh_for_slice((4, 4, 8))
        graph, annotations = transformer_step_graph(TINY, global_batch=64)
        trace = simulate(partition(graph, mesh, annotations))
        for engine in trace.engines:
            assert trace.makespan >= trace.busy_seconds(engine) - 1e-12

    def test_exposed_comm_bounded_by_comm_busy(self):
        mesh = mesh_for_slice((4, 4, 8))
        graph, annotations = transformer_step_graph(TINY, global_batch=64)
        trace = simulate(partition(graph, mesh, annotations))
        comm_busy = sum(trace.busy_seconds(e) for e in trace.engines
                        if e.startswith("ici:"))
        assert trace.exposed_comm_seconds() <= comm_busy + 1e-12


class TestSection710Pinned:
    """The Section 7.10 experiment's three step times: 8 layers of the
    LLM on 8x8x8, data on d0 and a 64-chip model axis on d1 and d2.
    Priced with a single dimension-ordered all-reduce pass and the
    closed-form all-to-all they read 554.9, 525.3 and 496.6 ms."""

    GOLDEN = {"serial": 0.3805040682423047,
              "overlap": 0.3508518409282683,
              "decomposed": 0.32222710571023266}

    def test_step_times_pinned(self):
        mesh = DeviceMesh((8, 8, 8), [MeshAxis("data", 8, (0,)),
                                      MeshAxis("model1", 64, (1, 2))])
        graph, annotations = transformer_step_graph(
            LLM_CONFIG, global_batch=256, num_layers=8)
        times = overlap_speedup(partition(graph, mesh, annotations),
                                chunks=4)
        assert times == pytest.approx(self.GOLDEN, rel=1e-12)


class TestDLRMIntegration:
    def test_dlrm_on_machine_slice(self):
        machine = TPUv4Supercomputer()
        slice_ = machine.create_slice((4, 4, 4))
        mesh = mesh_for_slice(slice_.topology.shape)
        config = DLRMGraphConfig(num_tables=4, vocab_per_table=65536,
                                 embedding_width=64)
        graph, annotations = dlrm_step_graph(config, mesh,
                                             global_batch=1024,
                                             table_axis="model1")
        trace = simulate(partition(graph, mesh, annotations))
        trace.validate()
        # SC, TC and ICI all participate (Section 3.5's parallelization).
        assert {"sparsecore", "tensorcore"} <= set(trace.engines)
        assert any(e.startswith("ici:") for e in trace.engines)
        machine.release(slice_)

    def test_sparse_and_dense_overlap(self):
        """Embedding gathers run on the SC engine concurrently with
        TensorCore matmuls — the overlap Section 3.5 credits the SC."""
        mesh = mesh_for_slice((4, 4, 4))
        config = DLRMGraphConfig(num_tables=8, vocab_per_table=65536,
                                 embedding_width=256, valency=16)
        graph, annotations = dlrm_step_graph(config, mesh,
                                             global_batch=4096)
        trace = simulate(partition(graph, mesh, annotations))
        sc = [r for r in trace.records if r.engine == "sparsecore"]
        tc = [r for r in trace.records if r.engine == "tensorcore"
              and r.duration > 0]
        overlapped = any(
            s.start < t.end and t.start < s.end
            for s in sc for t in tc)
        assert overlapped
