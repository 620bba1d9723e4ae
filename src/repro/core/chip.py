"""The TPU v4 chip as a structural element of the machine.

Performance-model details (FLOPS, HBM, CMEM) live in
:mod:`repro.chips.specs`; this module captures what the machine plane needs:
identity, placement, core counts, and ICI port budget (Table 4: 2
TensorCores, 4 SparseCores, 6 ICI links at 50 GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass

TENSORCORES_PER_CHIP = 2
SPARSECORES_PER_CHIP = 4
ICI_LINKS_PER_CHIP = 6
ICI_LINK_BANDWIDTH = 50e9  # bytes/second per direction
CHIPS_PER_HOST = 4


@dataclass(frozen=True)
class TPUv4Chip:
    """One TPU v4 ASIC at a fixed position in the machine.

    Attributes:
        chip_id: machine-global id (0..4095 for a full machine).
        block_id: the 4x4x4 block hosting this chip.
        host_id: machine-global CPU host id (4 chips per host).
        coords: chip coordinates *within its block* (0..3 each).
    """

    chip_id: int
    block_id: int
    host_id: int
    coords: tuple[int, int, int]

    @property
    def ici_links(self) -> int:
        """ICI ports (x+, x-, y+, y-, z+, z-)."""
        return ICI_LINKS_PER_CHIP
