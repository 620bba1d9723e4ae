"""A provisioned slice: blocks + OCS wiring + chip-level topology."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.slicing import SliceShape, slice_label
from repro.ocs.reconfigure import SliceWiring
from repro.topology.base import Topology
from repro.topology.twisted import is_twistable


@dataclass
class Slice:
    """A running slice of the supercomputer.

    Attributes:
        name: user-visible identifier.
        shape: chips per dimension (canonical x <= y <= z).
        twisted: whether the twisted-torus wiring was requested.
        block_ids: physical blocks hosting the slice.
        wiring: the OCS circuits realizing the topology.
    """

    name: str
    shape: SliceShape
    twisted: bool
    block_ids: list[int]
    wiring: SliceWiring

    @property
    def num_chips(self) -> int:
        """Chips in the slice."""
        return self.shape[0] * self.shape[1] * self.shape[2]

    @property
    def topology(self) -> Topology:
        """The chip-level interconnect graph."""
        return self.wiring.topology

    @property
    def label(self) -> str:
        """Table 2 style label ('4x4x8_T', '8x8x8', ...)."""
        twisted = self.twisted if is_twistable(self.shape) else None
        return slice_label(self.shape, twisted)

    def __repr__(self) -> str:
        return (f"<Slice {self.name}: {self.label}, {self.num_chips} chips, "
                f"{len(self.block_ids)} blocks>")
