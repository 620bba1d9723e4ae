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
all-reduce speedup a lambda-count upgrade buys, priced by
:class:`~repro.network.collectives.AxisGeometry` (split schedule), and
the device count a matching electrical upgrade would churn.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.collectives import AxisGeometry
from repro.network.fattree import ib_switch_count

# The study's reference: a 1 GiB all-reduce on an 8x8x8 slice of the
# 4096-chip machine.
REFERENCE_SHAPE = (8, 8, 8)
REFERENCE_BYTES = 1 << 30
MACHINE_CHIPS = 4096


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
    speedup_vs_baseline: float


def _allreduce_seconds(config: WDMConfig) -> float:
    return AxisGeometry(ring_sizes=REFERENCE_SHAPE,
                        link_bandwidth=config.link_bandwidth
                        ).allreduce(REFERENCE_BYTES)


def devices_touched(config: WDMConfig) -> dict[str, int]:
    """Hardware churn of moving the machine to `config`.

    OCS fabric: swap the transceivers, keep all 48 mirrors.  Electrical
    fat-tree: swap the NICs *and* every switch in the 3-level Clos.
    """
    blocks = MACHINE_CHIPS // 64
    transceivers = blocks * 96
    return {
        "ocs_transceivers": transceivers,
        "ocs_switches_replaced": 0,
        "ib_nics": MACHINE_CHIPS,
        "ib_switches_replaced": ib_switch_count(MACHINE_CHIPS),
    }


def upgrade_study(wavelength_counts: list[int] | None = None
                  ) -> list[UpgradePoint]:
    """Sweep lambda counts and report the all-reduce speedups.

    The baseline (1 lambda) matches the deployed 50 GB/s links; the
    paper's "multiple terabits/second" corresponds to >= 4 lambdas of
    400G optics.
    """
    if wavelength_counts is not None and not wavelength_counts:
        raise ConfigurationError("wavelength sweep must be non-empty")
    counts = wavelength_counts or [1, 2, 4, 8]
    if counts[0] < 1:
        raise ConfigurationError("wavelength counts must start >= 1")
    baseline_ar = _allreduce_seconds(WDMConfig(wavelengths=counts[0]))
    points = []
    for lambdas in counts:
        config = WDMConfig(wavelengths=lambdas)
        allreduce = _allreduce_seconds(config)
        points.append(UpgradePoint(
            config=config,
            allreduce_seconds=allreduce,
            speedup_vs_baseline=baseline_ar / allreduce))
    return points
