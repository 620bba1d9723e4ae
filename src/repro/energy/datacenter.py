"""Datacenter efficiency and grid-carbon profiles (Section 7.6's inputs).

All constants are the paper's own published coefficients:

* Google's fleet PUE: 1.10; worldwide average: 1.57 (was 2.50 in 2008);
* US-average carbon-free energy (CFE) 40%; Google Oklahoma 88%;
* global grid intensity 0.475 kgCO2e/kWh; Google Oklahoma, after hourly
  matched renewable purchases, 0.074.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

GOOGLE_PUE = 1.10
WORLD_AVERAGE_PUE_2021 = 1.57
US_AVERAGE_CFE = 0.40
GOOGLE_OKLAHOMA_CFE = 0.88
GLOBAL_GRID_KGCO2_PER_KWH = 0.475
GOOGLE_OKLAHOMA_KGCO2_PER_KWH = 0.074


@dataclass(frozen=True)
class DatacenterProfile:
    """Where a machine runs: power overhead and grid carbon."""

    name: str
    pue: float
    carbon_free_fraction: float
    kg_co2e_per_kwh: float

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ConfigurationError(f"{self.name}: PUE must be >= 1.0")
        if not 0.0 <= self.carbon_free_fraction <= 1.0:
            raise ConfigurationError(f"{self.name}: CFE must be in [0, 1]")
        if self.kg_co2e_per_kwh < 0:
            raise ConfigurationError(
                f"{self.name}: carbon intensity must be >= 0")


GOOGLE_CLOUD_OKLAHOMA = DatacenterProfile(
    name="Google Cloud (Oklahoma WSC)",
    pue=GOOGLE_PUE,
    carbon_free_fraction=GOOGLE_OKLAHOMA_CFE,
    kg_co2e_per_kwh=GOOGLE_OKLAHOMA_KGCO2_PER_KWH,
)

ON_PREMISE_AVERAGE = DatacenterProfile(
    name="Average on-premise datacenter",
    pue=WORLD_AVERAGE_PUE_2021,
    carbon_free_fraction=US_AVERAGE_CFE,
    kg_co2e_per_kwh=GLOBAL_GRID_KGCO2_PER_KWH,
)
