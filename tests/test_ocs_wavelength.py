"""Tests for repro.ocs.wavelength: the WDM upgrade study (Section 7.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.ocs.wavelength import WDMConfig, devices_touched, upgrade_study

# TPU v4 baseline: 50 GB/s per ICI link direction (Table 4).
BASELINE_LINK_BANDWIDTH = 50e9


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
    def test_bandwidth_scales_allreduce_linearly(self):
        one, four = upgrade_study([1, 4])
        # Alpha terms are constant; bandwidth terms dominate at 1 GiB.
        assert one.allreduce_seconds / four.allreduce_seconds == \
            pytest.approx(4.0, rel=0.02)


class TestUpgradeStudy:
    def test_default_sweep_monotone_speedup(self):
        points = upgrade_study()
        speedups = [p.speedup_vs_baseline for p in points]
        assert speedups[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_ocs_never_replaces_switches(self):
        for lambdas in (1, 2, 4, 8):
            churn = devices_touched(WDMConfig(wavelengths=lambdas))
            assert churn["ocs_transceivers"] == 64 * 96
            # The electrical upgrade touches NICs + every Clos switch.
            assert churn["ib_nics"] + churn["ib_switches_replaced"] > 4096

    def test_churn_ratio_favors_ocs(self):
        churn = devices_touched(WDMConfig(wavelengths=4))
        assert churn["ocs_switches_replaced"] == 0
        assert churn["ib_switches_replaced"] > 500  # Section 7.3's 568

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            upgrade_study([])


@pytest.mark.parametrize("call", [
    lambda: WDMConfig(gigabytes_per_wavelength=float("nan")),
    lambda: WDMConfig(gigabytes_per_wavelength=float("inf")),
    lambda: WDMConfig(wavelengths=2.5),
    lambda: WDMConfig(gigabytes_per_wavelength=0.0),
], ids=["gbps-nan", "gbps-inf", "fractional-lambdas", "gbps-zero"])
def test_bad_inputs_raise_configuration_error(call):
    with pytest.raises(ConfigurationError):
        call()


@given(st.integers(1, 64))
def test_link_bandwidth_linear_in_lambdas(lambdas):
    config = WDMConfig(wavelengths=lambdas)
    assert config.link_bandwidth == pytest.approx(
        lambdas * BASELINE_LINK_BANDWIDTH)
