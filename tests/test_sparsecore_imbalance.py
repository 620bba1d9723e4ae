"""Tests for repro.sparsecore.imbalance: Zipf skew and dedup effects."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sparsecore.imbalance import (ImbalanceStudy, LoadStats,
                                        dedup_study, imbalance_vs_chips,
                                        shard_loads, zipf_ids)


class TestZipfIds:
    def test_ids_in_vocab_range(self):
        ids = zipf_ids(10_000, 500, seed=3)
        assert ids.min() >= 0
        assert ids.max() < 500

    def test_deterministic_per_seed(self):
        a = zipf_ids(1000, 100, seed=7)
        b = zipf_ids(1000, 100, seed=7)
        assert np.array_equal(a, b)
        c = zipf_ids(1000, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_heavier_alpha_concentrates_mass(self):
        mild = zipf_ids(50_000, 10_000, alpha=0.6, seed=0)
        steep = zipf_ids(50_000, 10_000, alpha=1.8, seed=0)
        assert np.unique(steep).size < np.unique(mild).size

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_ids(-1, 10)
        with pytest.raises(ConfigurationError):
            zipf_ids(10, 0)
        with pytest.raises(ConfigurationError):
            zipf_ids(10, 10, alpha=0)


class TestShardLoads:
    def test_counts_conserved_without_dedup(self):
        ids = zipf_ids(10_000, 1000, seed=1)
        stats = shard_loads(ids, 16, dedup=False)
        assert stats.loads.sum() == 10_000
        assert stats.num_chips == 16

    def test_dedup_counts_unique_only(self):
        ids = np.array([1, 1, 1, 2, 3, 3])
        stats = shard_loads(ids, 2, dedup=True)
        assert stats.loads.sum() == 3  # rows 1, 2, 3
        assert stats.dedup_savings == pytest.approx(0.5)

    def test_imbalance_at_least_one(self):
        ids = zipf_ids(5000, 500, seed=2)
        assert shard_loads(ids, 8).imbalance >= 1.0

    def test_perfectly_uniform_is_balanced(self):
        ids = np.arange(64)
        stats = shard_loads(ids, 8, dedup=False)
        assert stats.imbalance == pytest.approx(1.0)

    def test_invalid_chips_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_loads(np.array([1]), 0)

    def test_empty_wave(self):
        stats = shard_loads(np.array([], dtype=int), 4, dedup=False)
        assert stats.imbalance == 1.0
        assert stats.dedup_savings == 0.0


class TestDedupStudy:
    def test_dedup_reduces_traffic_and_skew(self):
        study = dedup_study(1_000_000, 100_000, 64, alpha=1.2, seed=1)
        assert study.traffic_reduction > 0.5
        assert study.deduped.imbalance < study.raw.imbalance
        assert study.speedup() > 1.0

    def test_no_duplicates_no_gain(self):
        loads = LoadStats(loads=np.full(4, 10.0), total_ids=40)
        study = ImbalanceStudy(raw=loads, deduped=loads)
        assert study.traffic_reduction == 0.0
        assert study.speedup() == pytest.approx(1.0)

    def test_imbalance_vs_chips_rows(self):
        rows = imbalance_vs_chips(200_000, 50_000, [8, 64, 512], seed=0)
        assert [r[0] for r in rows] == [8, 64, 512]
        # Dedup never increases imbalance; skew grows with chip count.
        for chips, raw, deduped in rows:
            assert deduped <= raw + 1e-9
        assert rows[-1][1] >= rows[0][1]


@settings(max_examples=25)
@given(st.integers(1, 64), st.integers(1, 2000))
def test_dedup_never_increases_any_load(num_chips, seed):
    """Per-chip post-dedup load is pointwise <= the raw load."""
    ids = zipf_ids(5000, 700, alpha=1.1, seed=seed)
    raw = shard_loads(ids, num_chips, dedup=False)
    deduped = shard_loads(ids, num_chips, dedup=True)
    assert np.all(deduped.loads <= raw.loads + 1e-9)


@settings(max_examples=25)
@given(st.integers(2, 32))
def test_max_load_bounds_mean(num_chips):
    """max >= mean always; equality only when perfectly balanced."""
    ids = zipf_ids(3000, 300, seed=5)
    stats = shard_loads(ids, num_chips)
    assert stats.max_load >= stats.mean_load - 1e-9
