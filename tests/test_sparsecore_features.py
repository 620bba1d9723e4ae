"""Tests for categorical features, batches, tables, dedup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sparsecore import (CategoricalFeature, EmbeddingTable,
                              FeatureBatch, dedup_ids, dedup_savings,
                              synthetic_batch)
from repro.sparsecore.dedup import expand


class TestCategoricalFeature:
    def test_univalent(self):
        f = CategoricalFeature("country", vocab_size=200)
        assert f.univalent and f.avg_valency == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CategoricalFeature("bad", vocab_size=0)
        with pytest.raises(ConfigurationError):
            CategoricalFeature("bad", vocab_size=10, avg_valency=0.5)
        with pytest.raises(ConfigurationError):
            CategoricalFeature("bad", vocab_size=10, combiner="max")


class TestFeatureBatch:
    def _feature(self):
        return CategoricalFeature("words", vocab_size=100, avg_valency=3)

    def test_csr_access(self):
        batch = FeatureBatch(self._feature(),
                             ids=np.array([5, 7, 7, 2]),
                             offsets=np.array([0, 2, 2, 4]))
        assert batch.batch_size == 3
        assert list(batch.row_ids(0)) == [5, 7]
        assert list(batch.row_ids(1)) == []
        assert list(batch.valencies()) == [2, 0, 2]

    def test_offset_validation(self):
        with pytest.raises(ConfigurationError):
            FeatureBatch(self._feature(), ids=np.array([1]),
                         offsets=np.array([0, 2]))
        with pytest.raises(ConfigurationError):
            FeatureBatch(self._feature(), ids=np.array([1, 2]),
                         offsets=np.array([0, 2, 1, 2]))

    def test_vocab_validation(self):
        with pytest.raises(ConfigurationError):
            FeatureBatch(self._feature(), ids=np.array([100]),
                         offsets=np.array([0, 1]))

    def test_synthetic_batch_shape(self):
        feature = CategoricalFeature("q", vocab_size=1000, avg_valency=4)
        batch = synthetic_batch(feature, 64, seed=1)
        assert batch.batch_size == 64
        assert batch.total_ids >= 64
        assert batch.ids.max() < 1000

    def test_synthetic_batch_reproducible(self):
        feature = CategoricalFeature("q", vocab_size=1000, avg_valency=4)
        a = synthetic_batch(feature, 32, seed=9)
        b = synthetic_batch(feature, 32, seed=9)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_univalent_batch_one_per_row(self):
        feature = CategoricalFeature("c", vocab_size=50)
        batch = synthetic_batch(feature, 16, seed=0)
        assert batch.total_ids == 16

    def test_zipf_batches_have_duplicates(self):
        feature = CategoricalFeature("q", vocab_size=10_000, avg_valency=8)
        batch = synthetic_batch(feature, 256, seed=0)
        assert dedup_savings(batch.ids) > 0.2  # skew pays off


class TestEmbeddingTable:
    def test_lookup_sum_combiner(self):
        table = EmbeddingTable("t", vocab_size=4, dim=2,
                               weights=np.arange(8.0).reshape(4, 2))
        feature = CategoricalFeature("f", vocab_size=4, avg_valency=2)
        batch = FeatureBatch(feature, ids=np.array([0, 1, 3]),
                             offsets=np.array([0, 2, 3]))
        out = table.lookup(batch)
        np.testing.assert_allclose(out[0], [0 + 2, 1 + 3])
        np.testing.assert_allclose(out[1], [6, 7])

    def test_lookup_mean_combiner(self):
        table = EmbeddingTable("t", vocab_size=4, dim=2,
                               weights=np.arange(8.0).reshape(4, 2))
        feature = CategoricalFeature("f", vocab_size=4, avg_valency=2,
                                     combiner="mean")
        batch = FeatureBatch(feature, ids=np.array([0, 1]),
                             offsets=np.array([0, 2]))
        np.testing.assert_allclose(table.lookup(batch)[0], [1.0, 2.0])

    def test_empty_rows_zero(self):
        table = EmbeddingTable("t", vocab_size=4, dim=3)
        feature = CategoricalFeature("f", vocab_size=4, avg_valency=2)
        batch = FeatureBatch(feature, ids=np.array([], dtype=np.int64),
                             offsets=np.array([0, 0]))
        np.testing.assert_allclose(table.lookup(batch), np.zeros((1, 3)))

    def test_gather_range_check(self):
        table = EmbeddingTable("t", vocab_size=4, dim=2)
        with pytest.raises(ConfigurationError):
            table.gather(np.array([4]))

    def test_adagrad_moves_against_gradient(self):
        table = EmbeddingTable("t", vocab_size=4, dim=2,
                               weights=np.zeros((4, 2)))
        ids = np.array([1, 1, 2])
        grads = np.ones((3, 2))
        table.apply_gradients(ids, grads, learning_rate=0.1)
        assert np.all(table.weights[1] < 0)
        assert np.all(table.weights[2] < 0)
        np.testing.assert_allclose(table.weights[0], 0)
        # Duplicate ids accumulate: row 1 moved further than row 2.
        assert table.weights[1][0] < table.weights[2][0]

    def test_adaptive_rate_decays(self):
        table = EmbeddingTable("t", vocab_size=10, dim=4,
                               weights=np.ones((10, 4)))
        table.apply_gradients(np.array([1]), np.ones((1, 4)),
                              learning_rate=0.5)
        first_step = 1.0 - table.weights[1][0]
        before = table.weights[1][0]
        table.apply_gradients(np.array([1]), np.ones((1, 4)),
                              learning_rate=0.5)
        second_step = before - table.weights[1][0]
        assert 0 < second_step < first_step

    def test_bytes_accounting(self):
        table = EmbeddingTable("t", vocab_size=1000, dim=100)
        assert table.num_parameters == 100_000
        assert table.bytes == 400_000

    def test_deterministic_init(self):
        a = EmbeddingTable("same", vocab_size=10, dim=4)
        b = EmbeddingTable("same", vocab_size=10, dim=4)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestDedup:
    def test_roundtrip(self):
        ids = np.array([5, 3, 5, 5, 9])
        result = dedup_ids(ids)
        rows = np.arange(len(result.unique_ids) * 2.0).reshape(-1, 2)
        expanded = expand(result, rows)
        assert expanded.shape == (5, 2)
        np.testing.assert_array_equal(expanded[0], expanded[2])

    def test_savings(self):
        assert dedup_savings(np.array([1, 1, 1, 1])) == 0.75
        assert dedup_savings(np.array([1, 2, 3])) == 0.0
        assert dedup_savings(np.array([], dtype=np.int64)) == 0.0

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_expand_reconstructs_gather(self, raw_ids):
        ids = np.array(raw_ids, dtype=np.int64)
        weights = np.arange(21.0 * 3).reshape(21, 3)
        result = dedup_ids(ids)
        direct = weights[ids]
        via_dedup = expand(result, weights[result.unique_ids])
        np.testing.assert_array_equal(direct, via_dedup)
