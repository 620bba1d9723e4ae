"""Tests for the chip catalog (Tables 4 and 5)."""

import pytest

from repro.chips import A100, IPU_BOW, TPUV3, TPUV4
from repro.units import GB, GIB, MIB, TFLOP


class TestTable4:
    def test_tpuv4_headline(self):
        assert TPUV4.peak_bf16_flops == 275 * TFLOP
        assert TPUV4.clock_hz == 1050e6
        assert TPUV4.process_nm == 7
        assert TPUV4.chips_per_host == 4
        assert TPUV4.ici_links == 6
        assert TPUV4.ici_link_bandwidth == 50 * GB
        assert TPUV4.largest_config_chips == 4096
        assert TPUV4.sparsecores_per_chip == 4
        assert TPUV4.hbm_bandwidth == 1200 * GB
        assert TPUV4.hbm_capacity_bytes == 32 * GIB

    def test_tpuv3_headline(self):
        assert TPUV3.peak_bf16_flops == 123 * TFLOP
        assert TPUV3.ici_links == 4
        assert TPUV3.ici_link_bandwidth == 70 * GB
        assert TPUV3.largest_config_chips == 1024
        assert TPUV3.sparsecores_per_chip == 2
        assert TPUV3.hbm_bandwidth == 900 * GB

    def test_peak_ratio_22x(self):
        # Paper: "2.2X gain in peak performance".
        assert TPUV4.peak_bf16_flops / TPUV3.peak_bf16_flops == pytest.approx(
            2.24, abs=0.03)

    def test_hbm_ratio_13x(self):
        assert TPUV4.hbm_bandwidth / TPUV3.hbm_bandwidth == pytest.approx(
            1.33, abs=0.01)

    def test_cmem_only_on_v4(self):
        # v4: 128 MiB CMEM + 32 MiB VMEM + 10 MiB SpMEM; v3 has no CMEM.
        assert TPUV4.on_chip_memory_bytes == 170 * MIB
        assert TPUV3.on_chip_memory_bytes == 37 * MIB

    def test_measured_power(self):
        assert (TPUV4.idle_watts, TPUV4.mean_watts) == (90, 170)
        assert (TPUV3.idle_watts, TPUV3.mean_watts) == (123, 220)


class TestTable5:
    def test_a100_headline(self):
        assert A100.peak_bf16_flops == 312 * TFLOP
        assert A100.processors_per_chip == 108
        assert A100.threads_per_core == 32
        assert A100.total_threads == 3456  # paper: 32 x 108
        assert A100.register_file_bytes == 27 * MIB
        assert A100.hbm_capacity_bytes == 80 * GIB

    def test_ipu_headline(self):
        assert IPU_BOW.processors_per_chip == 1472
        assert IPU_BOW.total_threads == 8832  # paper: 6 x 1472
        assert IPU_BOW.on_chip_memory_bytes == 900 * MIB
        assert IPU_BOW.hbm_capacity_bytes == 0
        assert IPU_BOW.largest_config_chips == 256

    def test_a100_peak_edge_over_tpuv4(self):
        # Section 7.1: "A100 peak FLOPS/second rate is 1.13x TPU v4".
        assert A100.peak_bf16_flops / TPUV4.peak_bf16_flops == pytest.approx(
            1.13, abs=0.01)

    def test_ipu_peak_comparison(self):
        # Section 7.1: TPU v4 has "a 1.10x edge in peak FLOPS" over IPU.
        assert TPUV4.peak_bf16_flops / IPU_BOW.peak_bf16_flops == pytest.approx(
            1.10, abs=0.01)


class TestPower:
    def test_perf_per_watt_ratio(self):
        # Peak-based ratio ~2.9x; measured-performance ratio is 2.7x.
        v4 = TPUV4.peak_bf16_flops / TPUV4.mean_watts
        v3 = TPUV3.peak_bf16_flops / TPUV3.mean_watts
        assert v4 / v3 == pytest.approx(2.9, abs=0.15)

    def test_missing_power_is_none(self):
        # Table 4 publishes no mean power for the A100.
        assert A100.mean_watts is None
