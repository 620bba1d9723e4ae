"""The 4x4x4 block: the electrically-cabled building unit (one rack).

A rack holds 16 tray-host pairs (64 chips).  Passive electrical cables form
the 4x4x4 mesh inside the rack; the 96 face links (6 faces x 16) convert to
optics at the tray connector and run to the OCS fabric (Sections 2.1-2.2).

A block is schedulable only when every one of its 16 hosts is up — the
host is the dominant availability problem (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chip import TPUv4Chip
from repro.core.tray import CHIPS_PER_TRAY, Tray

BLOCK_SIDE = 4
CHIPS_PER_BLOCK = BLOCK_SIDE**3     # 64
TRAYS_PER_BLOCK = CHIPS_PER_BLOCK // CHIPS_PER_TRAY  # 16
HOSTS_PER_BLOCK = TRAYS_PER_BLOCK  # one host per tray
FACE_LINKS_PER_BLOCK = 6 * BLOCK_SIDE * BLOCK_SIDE  # 96
INTERNAL_MESH_LINKS = 3 * (BLOCK_SIDE - 1) * BLOCK_SIDE * BLOCK_SIDE  # 144


@dataclass
class Block:
    """One rack: 64 chips, 16 trays, 16 hosts, plus health state."""

    block_id: int
    trays: list[Tray] = field(default_factory=list)
    chips: list[TPUv4Chip] = field(default_factory=list)
    host_up: list[bool] = field(default_factory=list)
    in_use: bool = False

    @classmethod
    def build(cls, block_id: int) -> "Block":
        """Construct a fully-populated healthy block."""
        block = cls(block_id=block_id)
        host_base = block_id * HOSTS_PER_BLOCK
        chip_base = block_id * CHIPS_PER_BLOCK
        # Trays tile the block as 4 z-planes of 2x2 chip quads.
        for tray_index in range(TRAYS_PER_BLOCK):
            host_id = host_base + tray_index
            tray = Tray(tray_id=host_id, host_id=host_id)
            block.trays.append(tray)
            block.host_up.append(True)
        for local_id in range(CHIPS_PER_BLOCK):
            coords = (local_id // 16, (local_id // 4) % 4, local_id % 4)
            tray_index = local_id // CHIPS_PER_TRAY
            chip = TPUv4Chip(chip_id=chip_base + local_id,
                             block_id=block_id,
                             host_id=host_base + tray_index,
                             coords=coords)
            block.chips.append(chip)
            block.trays[tray_index].chips.append(chip)
        return block

    @property
    def num_hosts(self) -> int:
        """CPU hosts in the rack."""
        return len(self.host_up)

    @property
    def is_healthy(self) -> bool:
        """Schedulable: every host must be up (4 chips die with a host)."""
        return all(self.host_up)

    @property
    def available(self) -> bool:
        """Healthy and not already part of a slice."""
        return self.is_healthy and not self.in_use

    def fail_host(self, local_host: int) -> None:
        """Mark one of the block's 16 hosts down."""
        self.host_up[local_host] = False
