"""Tests for repro.ocs.wavelength: the WDM upgrade study (Section 7.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.ocs.wavelength import (BASELINE_LINK_BANDWIDTH, WDMConfig,
                                  collective_times, devices_touched,
                                  lambdas_for_target, upgrade_study)


class TestWDMConfig:
    def test_baseline_matches_deployed_links(self):
        assert WDMConfig().link_bandwidth == BASELINE_LINK_BANDWIDTH

    def test_terabits_conversion(self):
        # 50 GB/s = 0.4 Tbit/s per lambda.
        assert WDMConfig().terabits_per_link == pytest.approx(0.4)
        assert WDMConfig(wavelengths=8).terabits_per_link == pytest.approx(
            3.2)

    def test_multiple_terabits_needs_few_lambdas(self):
        # The Section 7.2 claim is reachable with single-digit lambdas.
        assert WDMConfig(wavelengths=4).terabits_per_link > 1.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            WDMConfig(wavelengths=0)
        with pytest.raises(ConfigurationError):
            WDMConfig(gigabytes_per_wavelength=0)


class TestCollectiveTimes:
    def test_bandwidth_scales_collectives_linearly(self):
        ar1, a2a1 = collective_times(WDMConfig(wavelengths=1))
        ar4, a2a4 = collective_times(WDMConfig(wavelengths=4))
        # Alpha terms are constant; bandwidth terms dominate at 1 GiB.
        assert ar1 / ar4 == pytest.approx(4.0, rel=0.02)
        assert a2a1 / a2a4 == pytest.approx(4.0, rel=0.02)


class TestUpgradeStudy:
    def test_default_sweep_monotone_speedup(self):
        points = upgrade_study()
        speedups = [p.speedup_vs_baseline for p in points]
        assert speedups[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_ocs_never_replaces_switches(self):
        for point in upgrade_study():
            assert point.devices_touched_ocs == 64 * 96
            # The electrical upgrade touches NICs + every Clos switch.
            assert point.devices_touched_ib > 4096

    def test_churn_ratio_favors_ocs(self):
        churn = devices_touched(WDMConfig(wavelengths=4))
        assert churn["ocs_switches_replaced"] == 0
        assert churn["ib_switches_replaced"] > 500  # Section 7.3's 568

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            upgrade_study([])


class TestLambdasForTarget:
    def test_single_lambda_covers_fraction(self):
        assert lambdas_for_target(0.4) == 1

    def test_multiple_terabits(self):
        assert lambdas_for_target(1.0) == 3
        assert lambdas_for_target(3.2) == 8

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            lambdas_for_target(0)


@pytest.mark.parametrize("call", [
    lambda: WDMConfig(gigabytes_per_wavelength=float("nan")),
    lambda: WDMConfig(gigabytes_per_wavelength=float("inf")),
    lambda: WDMConfig(wavelengths=2.5),
    lambda: lambdas_for_target(float("nan")),
    lambda: lambdas_for_target(float("inf")),
    lambda: lambdas_for_target(1.0, gigabytes_per_wavelength=0.0),
], ids=["gbps-nan", "gbps-inf", "fractional-lambdas", "target-nan",
        "target-inf", "target-zero-gbps"])
def test_bad_inputs_raise_configuration_error(call):
    with pytest.raises(ConfigurationError):
        call()


@given(st.integers(1, 64))
def test_link_bandwidth_linear_in_lambdas(lambdas):
    config = WDMConfig(wavelengths=lambdas)
    assert config.link_bandwidth == pytest.approx(
        lambdas * BASELINE_LINK_BANDWIDTH)


@given(st.floats(0.1, 100.0))
def test_lambdas_for_target_is_sufficient_and_minimal(target):
    lambdas = lambdas_for_target(target)
    assert WDMConfig(wavelengths=lambdas).terabits_per_link >= target - 1e-9
    if lambdas > 1:
        below = WDMConfig(wavelengths=lambdas - 1)
        assert below.terabits_per_link < target
