"""Tests for repro.graph.memory: the Section 7.10 HBM feasibility check."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.builders import TransformerShardingPlan, transformer_step_graph
from repro.graph.memory import (MemoryEstimate, TPUV4_HBM_CAPACITY,
                                estimate_memory)
from repro.graph.mesh import DeviceMesh, MeshAxis
from repro.graph.spmd import partition
from repro.models.transformer import TransformerConfig
from repro.units import GIB

TINY = TransformerConfig(name="tiny", num_layers=2, d_model=1024,
                         num_heads=16, d_ff=4096, seq_len=256)


def mesh(shape=(4, 4, 4)):
    model = shape[1] * shape[2]
    return DeviceMesh(shape, [MeshAxis("data", shape[0], (0,)),
                              MeshAxis("model1", model, (1, 2))])


def program(batch=64, shape=(4, 4, 4)):
    graph, annotations = transformer_step_graph(TINY, global_batch=batch)
    return partition(graph, mesh(shape), annotations)


class TestMemoryEstimate:
    def test_breakdown_adds_up(self):
        estimate = MemoryEstimate(parameter_bytes=1.0, gradient_bytes=2.0,
                                  optimizer_bytes=3.0, activation_bytes=4.0)
        assert estimate.total_bytes == 10.0
        assert estimate.utilization(100.0) == pytest.approx(0.1)

    def test_summary_mentions_gib(self):
        assert "GiB" in MemoryEstimate(GIB, GIB, GIB, GIB).summary()

    def test_tpuv4_capacity_constant(self):
        assert TPUV4_HBM_CAPACITY == 32 * GIB


class TestEstimateMemory:
    def test_gradients_mirror_parameters(self):
        estimate = estimate_memory(program())
        assert estimate.gradient_bytes == estimate.parameter_bytes

    def test_adam_state_is_4x_bf16_weights(self):
        estimate = estimate_memory(program())
        # bf16 weights (2 B) vs fp32 m+v (8 B): optimizer = 4x params.
        assert estimate.optimizer_bytes == pytest.approx(
            4 * estimate.parameter_bytes)

    def test_sgd_drops_optimizer_state(self):
        estimate = estimate_memory(program(), optimizer_bytes_per_param=0)
        assert estimate.optimizer_bytes == 0.0

    def test_activations_scale_with_batch(self):
        small = estimate_memory(program(batch=64))
        large = estimate_memory(program(batch=128))
        # Near-linear: the vocab-sized embedding gradient is the only
        # batch-independent tensor in the activation bucket.
        assert large.activation_bytes == pytest.approx(
            2 * small.activation_bytes, rel=0.05)
        assert large.parameter_bytes == small.parameter_bytes

    def test_more_chips_shrink_per_chip_footprint(self):
        small_mesh = estimate_memory(program(shape=(4, 4, 4)))
        big_mesh = estimate_memory(program(shape=(4, 8, 8)))
        assert big_mesh.total_bytes < small_mesh.total_bytes

    def test_liveness_bounds(self):
        full = estimate_memory(program(), activation_liveness=1.0)
        remat = estimate_memory(program(), activation_liveness=0.0)
        assert remat.activation_bytes == 0.0
        assert full.activation_bytes > 0.0
        with pytest.raises(ConfigurationError):
            estimate_memory(program(), activation_liveness=1.5)

    def test_data_parallel_replicates_weights(self):
        graph, annotations = transformer_step_graph(
            TINY, global_batch=64,
            plan=TransformerShardingPlan(data="data", model=None))
        flat = partition(graph, mesh(), annotations)
        sharded = estimate_memory(program())
        replicated = estimate_memory(flat)
        assert replicated.parameter_bytes > sharded.parameter_bytes

