"""Tests for the VMEM/CMEM/HBM memory-system model."""

import pytest

from repro.errors import ConfigurationError
from repro.tensorcore import MemorySystem
from repro.tensorcore.memory import TPUV3_MEMORY
from repro.units import GB


class TestMemorySystem:
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
