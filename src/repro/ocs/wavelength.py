"""Wavelength-multiplexing headroom of the OCS fabric (Section 7.2).

"OCSes are just fibers connected by mirrors, so any bandwidth running
through a fiber can be switched between input and output fibers by the
OCS ... an OCS could handle multiple terabits/second per link by using
wavelength multiplexing."

The asymmetry with electrical switching is the point: a MEMS mirror is
data-rate agnostic, so a bandwidth upgrade touches only the endpoint
optics (transceivers on each tray), while an electrical fabric
(Infiniband or NVSwitch) must also replace every switch ASIC it
traverses.  This module quantifies both sides of that asymmetry — the
collective speedups a lambda-count upgrade buys, priced by
:class:`~repro.network.collectives.AxisGeometry` (split-schedule
all-reduce, exact ECMP all-to-all), and the device count a matching
electrical upgrade would churn.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.collectives import AxisGeometry
from repro.network.fattree import ib_switch_count

# TPU v4 baseline: 50 GB/s per ICI link direction (Table 4).
BASELINE_LINK_BANDWIDTH = 50e9
# One 4096-chip machine: 64 blocks x 96 fiber ends (Section 2.2).
MACHINE_TRANSCEIVER_ENDS = 64 * 96
MACHINE_OCS_COUNT = 48


@dataclass(frozen=True)
class WDMConfig:
    """One wavelength-multiplexed ICI generation.

    Attributes:
        wavelengths: lambdas carried per fiber (1 = the deployed system).
        gigabytes_per_wavelength: per-direction bandwidth each lambda
            contributes (50 GB/s = 400 Gbit/s, the deployed optics).
    """

    wavelengths: int = 1
    gigabytes_per_wavelength: float = 50.0

    def __post_init__(self) -> None:
        if not (isinstance(self.wavelengths, numbers.Integral)
                and self.wavelengths >= 1):
            raise ConfigurationError(
                f"wavelengths must be an integer >= 1, "
                f"got {self.wavelengths!r}")
        if not (math.isfinite(self.gigabytes_per_wavelength)
                and self.gigabytes_per_wavelength > 0):
            raise ConfigurationError(
                f"per-lambda bandwidth must be finite and > 0, "
                f"got {self.gigabytes_per_wavelength}")

    @property
    def link_bandwidth(self) -> float:
        """Per-direction link bandwidth in bytes/second."""
        return self.wavelengths * self.gigabytes_per_wavelength * 1e9

    @property
    def terabits_per_link(self) -> float:
        """Marketing units: Tbit/s through one fiber."""
        return self.link_bandwidth * 8 / 1e12


@dataclass(frozen=True)
class UpgradePoint:
    """Effect of one WDM generation on a reference slice."""

    config: WDMConfig
    allreduce_seconds: float
    alltoall_seconds: float
    speedup_vs_baseline: float
    devices_touched_ocs: int
    devices_touched_ib: int


def collective_times(config: WDMConfig,
                     shape: tuple[int, int, int] = (8, 8, 8), *,
                     num_bytes: float = 1 << 30) -> tuple[float, float]:
    """(all-reduce, all-to-all) times on `shape` at one WDM config."""
    geometry = AxisGeometry(ring_sizes=shape,
                            link_bandwidth=config.link_bandwidth)
    return geometry.allreduce(num_bytes), geometry.alltoall(num_bytes)


def devices_touched(config: WDMConfig, *, num_chips: int = 4096
                    ) -> dict[str, int]:
    """Hardware churn of moving the machine to `config`.

    OCS fabric: swap the transceivers, keep all 48 mirrors.  Electrical
    fat-tree: swap the NICs *and* every switch in the 3-level Clos.
    """
    blocks = num_chips // 64
    transceivers = blocks * 96
    return {
        "ocs_transceivers": transceivers,
        "ocs_switches_replaced": 0,
        "ib_nics": num_chips,
        "ib_switches_replaced": ib_switch_count(num_chips),
    }


def upgrade_study(wavelength_counts: list[int] | None = None, *,
                  shape: tuple[int, int, int] = (8, 8, 8),
                  num_bytes: float = 1 << 30) -> list[UpgradePoint]:
    """Sweep lambda counts and report collective speedups + churn.

    The baseline (1 lambda) matches the deployed 50 GB/s links; the
    paper's "multiple terabits/second" corresponds to >= 4 lambdas of
    400G optics.
    """
    if wavelength_counts is not None and not wavelength_counts:
        raise ConfigurationError("wavelength sweep must be non-empty")
    counts = wavelength_counts or [1, 2, 4, 8]
    if counts[0] < 1:
        raise ConfigurationError("wavelength counts must start >= 1")
    baseline_ar, _ = collective_times(WDMConfig(wavelengths=counts[0]),
                                      shape, num_bytes=num_bytes)
    points = []
    for lambdas in counts:
        config = WDMConfig(wavelengths=lambdas)
        allreduce, alltoall = collective_times(config, shape,
                                               num_bytes=num_bytes)
        churn = devices_touched(config)
        points.append(UpgradePoint(
            config=config,
            allreduce_seconds=allreduce,
            alltoall_seconds=alltoall,
            speedup_vs_baseline=baseline_ar / allreduce,
            devices_touched_ocs=churn["ocs_transceivers"],
            devices_touched_ib=(churn["ib_nics"]
                                + churn["ib_switches_replaced"])))
    return points
