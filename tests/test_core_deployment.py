"""Tests for incremental deployment (Sec 2.4)."""

import numpy as np
import pytest

from repro.core.deployment import (incremental_deployment,
                                   monolithic_deployment,
                                   sample_delivery_days)
from repro.errors import ConfigurationError


class TestDeployment:
    def test_delivery_days_sorted_and_sized(self):
        days = sample_delivery_days(seed=1)
        assert len(days) == 64
        assert list(days) == sorted(days)

    def test_deliveries_reproducible(self):
        np.testing.assert_array_equal(sample_delivery_days(seed=3),
                                      sample_delivery_days(seed=3))

    def test_incremental_beats_monolithic(self):
        days = sample_delivery_days(seed=0)
        incremental = incremental_deployment(days)
        monolithic = monolithic_deployment(days)
        assert incremental.chip_days > monolithic.chip_days
        assert incremental.full_capacity_day == monolithic.full_capacity_day

    def test_stragglers_hurt_monolithic_more(self):
        smooth = sample_delivery_days(straggler_fraction=0.0, seed=0)
        rough = sample_delivery_days(straggler_fraction=0.3,
                                     straggler_delay_days=60, seed=0)
        horizon = float(max(smooth.max(), rough.max())) * 1.2
        smooth_ratio = (incremental_deployment(smooth, horizon).chip_days
                        / monolithic_deployment(smooth, horizon).chip_days)
        rough_ratio = (incremental_deployment(rough, horizon).chip_days
                       / monolithic_deployment(rough, horizon).chip_days)
        assert rough_ratio > smooth_ratio

    def test_incremental_beats_monolithic(self):
        days = sample_delivery_days(seed=0)
        assert incremental_deployment(days).chip_days > \
            monolithic_deployment(days).chip_days

    def test_utilization_bounded(self):
        days = sample_delivery_days(seed=0)
        for outcome in (incremental_deployment(days),
                        monolithic_deployment(days)):
            assert 0.0 <= outcome.utilization <= 1.0

    def test_invalid_block_count(self):
        with pytest.raises(ConfigurationError):
            sample_delivery_days(num_blocks=0)
