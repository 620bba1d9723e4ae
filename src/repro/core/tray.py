"""The 4-chip tray (printed circuit board).

The PCB embeds 4 ICI links connecting its chips as a 2x2 mesh; the
remaining 16 links leave through bottom-side OSFP connectors toward other
trays (paper Figure 2).  Each tray pairs with one CPU host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chip import TPUv4Chip

CHIPS_PER_TRAY = 4


@dataclass
class Tray:
    """Four chips on one board, plus its host binding."""

    host_id: int
    chips: list[TPUv4Chip] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.chips) not in (0, CHIPS_PER_TRAY):
            raise ValueError(
                f"a tray holds {CHIPS_PER_TRAY} chips, got {len(self.chips)}")
