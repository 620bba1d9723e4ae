"""Tests for sharding plans and the hardware timing blocks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShardingError
from repro.sparsecore import (CrossChannelUnits, EmbeddingTable, SCTile,
                              ShardingPlan, ShardingStrategy, SparseCore,
                              plan_for_tables)
from repro.sparsecore.timing import TPUV3_SC, TPUV4_SC


def make_tables():
    return [
        EmbeddingTable("big", vocab_size=100_000, dim=64),     # 25.6 MB
        EmbeddingTable("small", vocab_size=1000, dim=16),      # 64 KB
        EmbeddingTable("medium", vocab_size=50_000, dim=32),   # 6.4 MB
    ]


class TestShardingPlan:
    def test_heuristic_replicates_small(self):
        plan = plan_for_tables(make_tables(), num_chips=8)
        assert plan.strategy_of("small") is ShardingStrategy.REPLICATED
        assert plan.strategy_of("big") is ShardingStrategy.ROW
        assert plan.strategy_of("medium") is ShardingStrategy.ROW

    def test_row_owner_mod(self):
        plan = ShardingPlan(num_chips=4,
                            strategies={"t": ShardingStrategy.ROW})
        owners = plan.owners_of_ids("t", np.array([0, 1, 4, 5, 7]))
        np.testing.assert_array_equal(owners, [0, 1, 0, 1, 3])

    def test_table_home(self):
        tables = make_tables()
        plan = plan_for_tables(tables, num_chips=2, replicate_small=False,
                               default=ShardingStrategy.TABLE)
        homes = {plan.table_home[t.name] for t in tables}
        assert homes == {0, 1}  # round robin over 2 chips

    def test_unknown_table(self):
        plan = ShardingPlan(num_chips=2)
        with pytest.raises(ShardingError):
            plan.strategy_of("ghost")

    def test_bad_chip_count(self):
        with pytest.raises(ShardingError):
            ShardingPlan(num_chips=0)


class TestSCTile:
    def test_fetch_stream_limited(self):
        tile = SCTile()
        # Many large rows: stream-limited, linear in bytes.
        t1 = tile.fetch_time(1000, 400)
        t2 = tile.fetch_time(1000, 800)
        assert t2 == pytest.approx(2 * t1)

    def test_fetch_issue_limited_small_rows(self):
        tile = SCTile()
        issue_bound = 1000 * tile.fetch_cycles_per_row / tile.clock_hz
        assert tile.fetch_time(1000, 4) == pytest.approx(issue_bound)

    def test_combine_lanes(self):
        tile = SCTile()
        # 8 lanes: 16-element rows take 2 cycles per row.
        assert tile.combine_time(100, 16) == pytest.approx(200 / tile.clock_hz)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SCTile().fetch_time(-1, 4)


class TestCrossChannel:
    def test_sort_nlogn(self):
        units = CrossChannelUnits()
        assert units.sort_time(1) == 0.0
        assert units.sort_time(4096) > 2 * units.sort_time(1024)

    def test_pipeline_sums_stages(self):
        units = CrossChannelUnits()
        total = units.dedup_pipeline_time(10_000)
        parts = (units.sort_time(10_000) + units.unique_time(10_000)
                 + units.partition_time(10_000))
        assert total == pytest.approx(parts)

    def test_invalid_keys(self):
        with pytest.raises(ConfigurationError):
            CrossChannelUnits().sort_time(-5)


class TestSparseCore:
    def test_v4_has_double_tiles_of_v3(self):
        assert TPUV4_SC.total_tiles == 2 * TPUV3_SC.total_tiles

    def test_gather_faster_on_v4(self):
        v4 = SparseCore(TPUV4_SC)
        v3 = SparseCore(TPUV3_SC)
        assert v4.gather_time(100_000, 400) < v3.gather_time(100_000, 400)

    def test_overhead_scales_with_tables(self):
        core = SparseCore(TPUV4_SC)
        assert core.overhead_time(300) > core.overhead_time(30)

    def test_flush_matches_gather(self):
        core = SparseCore(TPUV4_SC)
        assert core.flush_time(5000, 400) == core.gather_time(5000, 400)

    def test_negative_rows(self):
        with pytest.raises(ConfigurationError):
            SparseCore(TPUV4_SC).gather_time(-1, 4)
