"""Tests for unit constants and formatting helpers."""

import math

import pytest

from repro import units


class TestConstants:
    def test_binary_vs_decimal(self):
        assert units.GIB > units.GB
        assert units.MIB == 1024**2
        assert units.GB == 1e9

    def test_kwh_joules(self):
        assert units.KWH == pytest.approx(1000 * 3600)

    def test_time_ladder(self):
        assert units.NS < units.US < units.MS < units.MINUTE < units.HOUR
        assert units.DAY == 24 * units.HOUR


class TestFormatters:
    def test_format_bytes_binary(self):
        assert units.format_bytes(32 * units.GIB) == "32.00 GiB"
        assert units.format_bytes(2.5 * units.MIB) == "2.50 MiB"
        assert units.format_bytes(10) == "10 B"

    def test_format_bytes_decimal(self):
        assert units.format_bytes(1.2e12, binary=False) == "1.20 TB"

    def test_format_rate(self):
        assert units.format_rate(50 * units.GB) == "50.00 GB/s"

    def test_format_flops(self):
        assert units.format_flops(275 * units.TFLOP) == "275.0 TFLOPS"
        assert units.format_flops(1.1e15) == "1.1 PFLOPS"

    def test_format_seconds_spread(self):
        assert units.format_seconds(7200) == "2.00 h"
        assert units.format_seconds(90) == "1.50 min"
        assert units.format_seconds(2.5) == "2.50 s"
        assert units.format_seconds(0.0021) == "2.10 ms"
        assert units.format_seconds(3.2e-6) == "3.20 us"
        assert units.format_seconds(5e-9) == "5.0 ns"

    def test_format_negative_bytes(self):
        assert "GiB" in units.format_bytes(-4 * units.GIB)
