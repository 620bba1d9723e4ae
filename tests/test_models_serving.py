"""Tests for the serving-path model (Section 3.1)."""

import pytest

from repro.errors import ConfigurationError
from repro.models.dlrm import DLRM0_2022
from repro.models.serving import chips_for_qps, serving_estimate


class TestServing:
    def test_qps_scales_with_chips(self):
        small = serving_estimate(DLRM0_2022, 8)
        large = serving_estimate(DLRM0_2022, 64)
        assert large.qps > 5 * small.qps

    def test_production_requirement_met(self):
        # Section 3.1: "well over one hundred thousand requests/second".
        estimate = serving_estimate(DLRM0_2022, 64)
        assert estimate.qps > 100_000

    def test_latency_budget(self):
        estimate = serving_estimate(DLRM0_2022, 8)
        assert estimate.meets_latency(10e-3)
        assert not estimate.meets_latency(1e-9)

    def test_chips_for_qps_monotone(self):
        few = chips_for_qps(DLRM0_2022, 1e5)
        many = chips_for_qps(DLRM0_2022, 1e8)
        assert many >= few

    def test_unreachable_target(self):
        with pytest.raises(ConfigurationError):
            chips_for_qps(DLRM0_2022, 1e15, max_chips=64)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            serving_estimate(DLRM0_2022, 0)
        with pytest.raises(ConfigurationError):
            chips_for_qps(DLRM0_2022, -1.0)
