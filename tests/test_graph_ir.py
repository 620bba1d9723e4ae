"""Tests for repro.graph.ops and repro.graph.graph: the op IR and DAG."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import (AllGatherOp, AllReduceOp, ElementwiseOp,
                             EmbeddingLookupOp, FusionOp, InputOp, MatMulOp,
                             ParameterOp)
from repro.graph.tensor import TensorSpec


def small_graph():
    g = ComputationGraph("t")
    g.add(InputOp(name="x", output=TensorSpec((8, 4))))
    g.add(ParameterOp(name="w", output=TensorSpec((4, 4))))
    g.add(MatMulOp(name="y", inputs=("x", "w"), output=TensorSpec((8, 4)),
                   m=8, k=4, n=4))
    g.add(ElementwiseOp(name="z", inputs=("y",), output=TensorSpec((8, 4)),
                        flops_per_element=2.0))
    return g


class TestOps:
    def test_matmul_flops(self):
        op = MatMulOp(name="mm", inputs=("a", "b"),
                      output=TensorSpec((8, 16)), m=8, k=32, n=16, batch=3)
        assert op.flops() == 2 * 3 * 8 * 32 * 16

    def test_matmul_needs_two_inputs(self):
        with pytest.raises(ConfigurationError):
            MatMulOp(name="mm", inputs=("a",), output=TensorSpec((8,)))

    def test_matmul_rejects_bad_extent(self):
        with pytest.raises(ConfigurationError):
            MatMulOp(name="mm", inputs=("a", "b"),
                     output=TensorSpec((8,)), m=0, k=1, n=1)

    def test_elementwise_flops(self):
        op = ElementwiseOp(name="e", inputs=("a", "b"),
                           output=TensorSpec((4, 4), dtype_bytes=2),
                           flops_per_element=3.0)
        assert op.flops() == 48

    def test_embedding_lookup_costs(self):
        op = EmbeddingLookupOp(name="l", inputs=("t", "i"),
                               output=TensorSpec((128, 64)),
                               vocab=1000, width=64, lookups=256)
        assert op.flops() == 256 * 64

    def test_embedding_lookup_needs_table_and_ids(self):
        with pytest.raises(ConfigurationError):
            EmbeddingLookupOp(name="l", inputs=("t",),
                              output=TensorSpec((4, 4)))

    def test_collective_validation(self):
        with pytest.raises(ConfigurationError):
            AllReduceOp(name="ar", inputs=("x",), output=TensorSpec((4,)),
                        mesh_axis="", comm_bytes=10)
        with pytest.raises(ConfigurationError):
            AllReduceOp(name="ar", inputs=("x",), output=TensorSpec((4,)),
                        mesh_axis="data", comm_bytes=-1)

    def test_collective_is_flagged(self):
        op = AllGatherOp(name="ag", inputs=("x",), output=TensorSpec((4,)),
                         mesh_axis="data", comm_bytes=64)
        assert op.is_collective

    def test_fusion_is_free(self):
        op = FusionOp(name="f", inputs=("x",), output=TensorSpec((4,)))
        assert op.flops() == 0.0

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            InputOp(name="", output=TensorSpec((1,)))


class TestComputationGraph:
    def test_build_and_lookup(self):
        g = small_graph()
        assert len(g) == 4
        assert "y" in g
        assert g.op("y").kind == "matmul"
        assert g.consumers("y") == ["z"]
        assert g.inputs() == ["x"]

    def test_duplicate_name_rejected(self):
        g = small_graph()
        with pytest.raises(ConfigurationError):
            g.add(InputOp(name="x", output=TensorSpec((1,))))

    def test_unknown_producer_rejected(self):
        g = ComputationGraph()
        with pytest.raises(ConfigurationError):
            g.add(ElementwiseOp(name="e", inputs=("ghost",),
                                output=TensorSpec((1,))))

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            small_graph().op("ghost")

    def test_totals(self):
        g = small_graph()
        assert g.total_flops() == 2 * 8 * 4 * 4 + 2 * 32
        assert g.parameter_bytes() == 4 * 4 * 2

    def test_counts_by_kind(self):
        counts = small_graph().counts_by_kind()
        assert counts == {"input": 1, "parameter": 1, "matmul": 1,
                          "elementwise": 1}

    def test_validate_passes_on_well_formed(self):
        small_graph().validate()

    def test_describe_mentions_ops(self):
        text = small_graph().describe()
        assert "4 ops" in text
        assert "matmul=1" in text

    def test_insertion_order_is_topological(self):
        g = small_graph()
        names = [op.name for op in g.ops()]
        assert names.index("x") < names.index("y") < names.index("z")
