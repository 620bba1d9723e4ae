"""Tests for the VMEM/CMEM/HBM memory-system model."""

import pytest

from repro.errors import ConfigurationError
from repro.tensorcore import MemorySystem
from repro.tensorcore.memory import TPUV3_MEMORY
from repro.units import GB, MIB


class TestMemorySystem:
    def test_serving_levels(self):
        mem = MemorySystem()
        assert mem.serving_level(16 * MIB) == "vmem"
        assert mem.serving_level(64 * MIB) == "cmem"
        assert mem.serving_level(1 * 2**30) == "hbm"

    def test_cmem_off_spills_to_hbm(self):
        mem = MemorySystem().without_cmem()
        assert mem.serving_level(64 * MIB) == "hbm"

    def test_oversized_working_set(self):
        with pytest.raises(ConfigurationError):
            MemorySystem().serving_level(1e15)

    def test_transfer_time_uses_level_bandwidth(self):
        mem = MemorySystem()
        on_chip = mem.transfer_time(256 * MIB, working_set_bytes=64 * MIB)
        off_chip = mem.transfer_time(256 * MIB, working_set_bytes=512 * MIB)
        assert on_chip.served_by == "cmem"
        assert off_chip.served_by == "hbm"
        assert on_chip.seconds < off_chip.seconds

    def test_effective_bandwidth_blend(self):
        mem = MemorySystem()
        assert mem.effective_bandwidth(1.0) == pytest.approx(mem.hbm_bandwidth)
        assert mem.effective_bandwidth(0.0) == pytest.approx(mem.cmem_bandwidth)
        mid = mem.effective_bandwidth(0.5)
        assert mem.hbm_bandwidth < mid < mem.cmem_bandwidth

    def test_effective_bandwidth_without_cmem(self):
        mem = MemorySystem().without_cmem()
        assert mem.effective_bandwidth(0.1) == mem.hbm_bandwidth

    def test_tpuv3_profile(self):
        assert not TPUV3_MEMORY.cmem_enabled
        assert TPUV3_MEMORY.hbm_bandwidth == 900 * GB

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            MemorySystem().effective_bandwidth(1.5)
