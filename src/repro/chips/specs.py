"""Chip specification catalog (paper Tables 4 and 5).

Numbers are transcribed from the paper; fields the paper lists as "N.A."
are None.  Idle and mean power are the measured ASIC+HBM
production-application numbers from Table 4, not TDP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB, GIB, MIB, TFLOP


@dataclass(frozen=True)
class ChipSpec:
    """One DSA/GPU as the paper's feature tables describe it."""

    name: str
    deployed: int                       # production deployment year
    peak_bf16_flops: float              # FLOPS
    clock_hz: float
    process_nm: int
    transistors: float
    chips_per_host: int
    idle_watts: float | None
    mean_watts: float | None
    ici_links: int
    ici_link_bandwidth: float           # bytes/s per link
    largest_config_chips: int
    processors_per_chip: int
    threads_per_core: int
    sparsecores_per_chip: int
    on_chip_memory_bytes: float
    register_file_bytes: float = 0.0
    hbm_capacity_bytes: float = 0.0
    hbm_bandwidth: float = 0.0          # bytes/s

    @property
    def total_threads(self) -> int:
        """Hardware threads across the chip (Table 5 discussion)."""
        return self.processors_per_chip * self.threads_per_core


TPUV4 = ChipSpec(
    name="TPU v4",
    deployed=2020,
    peak_bf16_flops=275 * TFLOP,
    clock_hz=1050e6,
    process_nm=7,
    transistors=22e9,
    chips_per_host=4,
    idle_watts=90.0,
    mean_watts=170.0,
    ici_links=6,
    ici_link_bandwidth=50 * GB,
    largest_config_chips=4096,
    processors_per_chip=2,
    threads_per_core=1,
    sparsecores_per_chip=4,
    on_chip_memory_bytes=(128 + 32 + 10) * MIB,  # CMEM + VMEM + SpMEM
    register_file_bytes=0.25 * MIB,
    hbm_capacity_bytes=32 * GIB,
    hbm_bandwidth=1200 * GB,
)

TPUV3 = ChipSpec(
    name="TPU v3",
    deployed=2018,
    peak_bf16_flops=123 * TFLOP,
    clock_hz=940e6,
    process_nm=16,
    transistors=10e9,
    chips_per_host=8,
    idle_watts=123.0,
    mean_watts=220.0,
    ici_links=4,
    ici_link_bandwidth=70 * GB,
    largest_config_chips=1024,
    processors_per_chip=2,
    threads_per_core=1,
    sparsecores_per_chip=2,
    on_chip_memory_bytes=(32 + 5) * MIB,  # VMEM + SpMEM
    register_file_bytes=0.25 * MIB,
    hbm_capacity_bytes=32 * GIB,
    hbm_bandwidth=900 * GB,
)

A100 = ChipSpec(
    name="Nvidia A100",
    deployed=2020,
    peak_bf16_flops=312 * TFLOP,
    clock_hz=1410e6,  # boost; base 1095 MHz (Section 7.1)
    process_nm=7,
    transistors=54e9,
    chips_per_host=4,
    idle_watts=None,
    mean_watts=None,
    ici_links=12,
    ici_link_bandwidth=25 * GB,
    largest_config_chips=4216,
    processors_per_chip=108,
    threads_per_core=32,
    sparsecores_per_chip=0,
    on_chip_memory_bytes=40 * MIB,
    register_file_bytes=27 * MIB,
    hbm_capacity_bytes=80 * GIB,
    hbm_bandwidth=2039 * GB,
)

IPU_BOW = ChipSpec(
    name="Graphcore MK2 IPU Bow",
    deployed=2021,
    peak_bf16_flops=250 * TFLOP,
    clock_hz=1850e6,
    process_nm=7,
    transistors=59e9,
    chips_per_host=4,
    idle_watts=None,
    mean_watts=None,
    ici_links=3,
    ici_link_bandwidth=64 * GB,
    largest_config_chips=256,
    processors_per_chip=1472,
    threads_per_core=6,
    sparsecores_per_chip=0,
    on_chip_memory_bytes=900 * MIB,
    register_file_bytes=1.40 * MIB,
    hbm_capacity_bytes=0.0,
    hbm_bandwidth=0.0,
)
