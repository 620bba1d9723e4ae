"""Tests for repro.graph.tensor: specs, shardings, local shapes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.graph.tensor import (ShardingSpec, TensorSpec, local_shape,
                                replicated)


class TestTensorSpec:
    def test_num_elements_and_bytes(self):
        spec = TensorSpec((4, 8, 2), dtype_bytes=2)
        assert spec.num_elements == 64
        assert spec.num_bytes == 128
        assert spec.rank == 3

    def test_scalar(self):
        spec = TensorSpec(())
        assert spec.num_elements == 1
        assert spec.rank == 0

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ConfigurationError):
            TensorSpec((4, 0))

    def test_rejects_nonpositive_dtype(self):
        with pytest.raises(ConfigurationError):
            TensorSpec((4,), dtype_bytes=0)



class TestShardingSpec:
    def test_replicated_helper(self):
        spec = replicated(3)
        assert spec.axes == (None, None, None) and not spec.partial
        assert spec.rank == 3

    def test_sharded_axes(self):
        spec = ShardingSpec(axes=("data", None, "model1"))
        assert spec.sharded_axes == ("data", "model1")

    def test_rejects_duplicate_axis(self):
        with pytest.raises(ConfigurationError):
            ShardingSpec(axes=("data", "data"))

    def test_rejects_axis_both_sharding_and_partial(self):
        with pytest.raises(ConfigurationError):
            ShardingSpec(axes=("data",), partial=("data",))

    def test_rejects_duplicate_partial(self):
        with pytest.raises(ConfigurationError):
            ShardingSpec(axes=(None,), partial=("data", "data"))

    def test_drop_partial(self):
        spec = ShardingSpec(axes=(None,), partial=("data",))
        assert spec.drop_partial() == ShardingSpec(axes=(None,))

    def test_with_dim(self):
        spec = ShardingSpec(axes=("data", None))
        assert spec.with_dim(1, "model1").axes == ("data", "model1")
        assert spec.with_dim(0, None).axes == (None, None)

    def test_label(self):
        spec = ShardingSpec(axes=("data", None), partial=("model1",))
        assert spec.label() == "[data, -]+partial(model1)"


class TestLocalShape:
    AXES = {"data": 4, "model1": 8}

    def test_divides_evenly(self):
        tensor = TensorSpec((16, 64))
        sharding = ShardingSpec(axes=("data", "model1"))
        assert local_shape(tensor, sharding, self.AXES) == (4, 8)

    def test_replicated_is_global(self):
        tensor = TensorSpec((16, 64))
        assert local_shape(tensor, replicated(2), self.AXES) == (16, 64)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ConfigurationError):
            local_shape(TensorSpec((16,)), replicated(2), self.AXES)

    def test_rejects_indivisible(self):
        tensor = TensorSpec((10, 64))
        sharding = ShardingSpec(axes=("data", None))
        with pytest.raises(ConfigurationError):
            local_shape(tensor, sharding, self.AXES)

    def test_rejects_unknown_axis(self):
        tensor = TensorSpec((16, 64))
        sharding = ShardingSpec(axes=("bogus", None))
        with pytest.raises(ConfigurationError):
            local_shape(tensor, sharding, self.AXES)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 8), st.integers(1, 8))
def test_local_elements_times_chips_is_global(a, b, c, data, model):
    """Sharding conserves elements: local * axis sizes == global."""
    tensor = TensorSpec((a * data, b * model, c))
    sharding = ShardingSpec(axes=("data", "model1", None))
    sizes = {"data": data, "model1": model}
    local = local_shape(tensor, sharding, sizes)
    product = local[0] * local[1] * local[2] * data * model
    assert product == tensor.num_elements


@given(st.lists(st.sampled_from(["data", "model1", "model2", None]),
                min_size=1, max_size=4))
def test_sharding_spec_round_trips_when_axes_unique(axes):
    """Any axis list without duplicates builds and labels cleanly."""
    named = [a for a in axes if a is not None]
    if len(named) != len(set(named)):
        with pytest.raises(ConfigurationError):
            ShardingSpec(axes=tuple(axes))
        return
    spec = ShardingSpec(axes=tuple(axes))
    assert spec.rank == len(axes)
    assert spec.axes == tuple(axes)
    assert spec.label().startswith("[")
