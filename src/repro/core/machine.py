"""The 4096-chip TPU v4 supercomputer.

64 blocks (racks) joined by the 48-switch OCS fabric.  The machine object
owns block health state and live slices; placement freedom — any healthy
blocks can host a slice — is the OCS scheduling benefit of Section 2.5.
"""

from __future__ import annotations

import itertools

from repro.core.block import (Block, CHIPS_PER_BLOCK, HOSTS_PER_BLOCK)
from repro.core.slice_ import Slice
from repro.core.slicing import (SliceShape, blocks_needed, canonical_shape,
                                is_legal_shape)
from repro.errors import SchedulingError
from repro.ocs.fabric import OCSFabric
from repro.ocs.reconfigure import (BlockCoord, default_placement,
                                   realize_slice, release_slice)
from repro.topology.builder import is_block_multiple

MACHINE_BLOCKS = 64


class TPUv4Supercomputer:
    """The full machine: blocks, fabric, and live slices."""

    def __init__(self, num_blocks: int = MACHINE_BLOCKS) -> None:
        if num_blocks < 1:
            raise SchedulingError("a machine needs at least one block")
        self.blocks = [Block.build(block_id) for block_id in range(num_blocks)]
        self.fabric = OCSFabric(num_blocks=num_blocks)
        self.fabric.validate_capacity()
        self.slices: dict[str, Slice] = {}
        self._slice_counter = itertools.count()

    # -- inventory ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Racks in the machine."""
        return len(self.blocks)

    @property
    def num_chips(self) -> int:
        """Total chips."""
        return self.num_blocks * CHIPS_PER_BLOCK

    @property
    def num_hosts(self) -> int:
        """Total CPU hosts (4 chips per host)."""
        return self.num_blocks * HOSTS_PER_BLOCK

    def available_blocks(self) -> list[Block]:
        """Healthy blocks not already in a slice."""
        return [b for b in self.blocks if b.available]

    # -- slice lifecycle ---------------------------------------------------------------

    def create_slice(self, shape: SliceShape, *, twisted: bool = False,
                     block_ids: list[int] | None = None,
                     name: str | None = None) -> Slice:
        """Provision a slice on healthy free blocks and program the OCSes.

        Args:
            shape: requested geometry (any dimension order).
            twisted: request the twisted torus.
            block_ids: explicit physical blocks (defaults to first-fit over
                available blocks — the OCS lets us pick ANY of them).
            name: optional slice name.
        """
        dims = canonical_shape(shape)
        if not is_legal_shape(dims):
            raise SchedulingError(f"illegal slice shape {dims}")
        needed = blocks_needed(dims)
        if block_ids is None:
            candidates = self.available_blocks()
            if len(candidates) < needed:
                raise SchedulingError(
                    f"need {needed} blocks, only {len(candidates)} available")
            block_ids = [b.block_id for b in candidates[:needed]]
        else:
            if len(block_ids) != needed:
                raise SchedulingError(
                    f"shape {dims} needs {needed} blocks, got {len(block_ids)}")
            for block_id in block_ids:
                if not self.blocks[block_id].available:
                    raise SchedulingError(
                        f"block {block_id} is unhealthy or busy")

        placement = self._placement_for(dims, block_ids)
        wiring = realize_slice(self.fabric, dims, twisted=twisted,
                               placement=placement)
        if name is None:
            name = f"slice-{next(self._slice_counter)}"
        if name in self.slices:
            raise SchedulingError(f"slice name {name!r} already in use")
        for block_id in block_ids:
            self.blocks[block_id].in_use = True
        created = Slice(name=name, shape=dims, twisted=twisted,
                        block_ids=list(block_ids), wiring=wiring)
        self.slices[name] = created
        return created

    def _placement_for(self, dims: SliceShape,
                       block_ids: list[int]) -> dict[BlockCoord, int] | None:
        if not is_block_multiple(dims):
            return None
        coords = sorted(default_placement(dims))
        return {coord: block_id for coord, block_id in zip(coords, block_ids)}

    def release(self, slice_or_name: Slice | str) -> None:
        """Tear down a slice's circuits and free its blocks."""
        name = slice_or_name if isinstance(slice_or_name, str) \
            else slice_or_name.name
        if name not in self.slices:
            raise SchedulingError(f"unknown slice {name!r}")
        victim = self.slices.pop(name)
        release_slice(self.fabric, victim.wiring)
        for block_id in victim.block_ids:
            self.blocks[block_id].in_use = False

    def scheduled_chips(self) -> int:
        """Chips currently inside live slices."""
        # detlint: ignore[D005] integer chip counts; order-free sum
        return sum(s.num_chips for s in self.slices.values())

    def utilization(self) -> float:
        """Scheduled fraction of the machine."""
        return self.scheduled_chips() / self.num_chips
