"""Realize a slice topology by programming the OCS fabric.

A slice's chip-level torus (or twisted torus) decomposes into:

* electrical links — the mesh inside each 4x4x4 block (never change);
* optical links — every inter-block and wraparound link, each one an OCS
  circuit on the switch serving its (dimension, face position).

Because the paper's twists skew by multiples of 4, all 16 chip links of a
block face always target the *same* destination block, and the face
position is preserved end-to-end — which is exactly why twisting is "mostly
reprogramming of routing in the OCS" (Section 2.8) and why each of the 48
switches can be programmed independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import OCSError, TopologyError
from repro.ocs.fabric import FACE_SIDE, OCSFabric
from repro.topology.base import Topology
from repro.topology.builder import build_topology, is_block_multiple
from repro.topology.coords import Coord

BlockCoord = tuple[int, int, int]


def block_of(chip: Coord) -> BlockCoord:
    """The block-grid coordinate containing a chip."""
    return (chip[0] // FACE_SIDE, chip[1] // FACE_SIDE, chip[2] // FACE_SIDE)


def is_electrical(u: Coord, v: Coord) -> bool:
    """True for links carried by the in-rack electrical mesh."""
    if block_of(u) != block_of(v):
        return False
    return sum(abs(a - b) for a, b in zip(u, v)) == 1


@dataclass
class Circuit:
    """One programmed OCS circuit realizing one chip-level optical link."""

    dim: int
    face_index: int
    low_block: int   # physical block id whose '+' face feeds the circuit
    high_block: int  # physical block id whose '-' face receives it
    chip_link: tuple[Coord, Coord]


@dataclass
class SliceWiring:
    """The complete wiring record for one realized slice."""

    shape: tuple[int, int, int]
    twisted: bool
    placement: dict[BlockCoord, int]
    topology: Topology
    circuits: list[Circuit] = field(default_factory=list)
    num_electrical_links: int = 0

    @property
    def num_optical_links(self) -> int:
        """Chip-level links carried by OCS circuits."""
        return len(self.circuits)

    def verify(self) -> None:
        """Cross-check the wiring against the slice topology."""
        expected_total = self.topology.num_links
        actual = self.num_optical_links + self.num_electrical_links
        if actual != expected_total:
            raise OCSError(
                f"wiring covers {actual} links but topology has "
                f"{expected_total}")


def default_placement(shape: tuple[int, int, int]) -> dict[BlockCoord, int]:
    """Identity placement: block-grid coords to row-major physical ids."""
    blocks_per_dim = tuple(d // FACE_SIDE for d in shape)
    placement: dict[BlockCoord, int] = {}
    next_id = 0
    for bx in range(blocks_per_dim[0]):
        for by in range(blocks_per_dim[1]):
            for bz in range(blocks_per_dim[2]):
                placement[(bx, by, bz)] = next_id
                next_id += 1
    return placement


def _face_position(chip: Coord, dim: int) -> int:
    """Index 0..15 of a chip's link on its block face for `dim`."""
    others = [d for d in range(3) if d != dim]
    return (chip[others[0]] % FACE_SIDE) * FACE_SIDE + (chip[others[1]] % FACE_SIDE)


def realize_slice(fabric: OCSFabric, shape: tuple[int, int, int], *,
                  twisted: bool = False,
                  placement: dict[BlockCoord, int] | None = None) -> SliceWiring:
    """Program `fabric` with every circuit needed for the slice.

    Args:
        fabric: the machine's OCS fabric; circuits are created on it.
        shape: slice shape in chips.  Sub-block (mesh) shapes yield a wiring
            with zero circuits — they live entirely on electrical links.
        twisted: request the twisted-torus variant.
        placement: block-grid coordinate -> physical block id.  Defaults to
            the identity placement.  This is the scheduler's degree of
            freedom: ANY healthy blocks can host the slice (Section 2.5).

    Returns the :class:`SliceWiring`, already verified.
    """
    topology = build_topology(shape, twisted=twisted)
    if not is_block_multiple(shape):
        wiring = SliceWiring(shape=shape, twisted=twisted, placement={},
                             topology=topology,
                             num_electrical_links=topology.num_links)
        wiring.verify()
        return wiring

    if placement is None:
        placement = default_placement(shape)
    blocks_needed = (shape[0] // FACE_SIDE) * (shape[1] // FACE_SIDE) * \
        (shape[2] // FACE_SIDE)
    if len(placement) != blocks_needed:
        raise OCSError(
            f"placement covers {len(placement)} blocks, slice needs "
            f"{blocks_needed}")
    if len(set(placement.values())) != blocks_needed:
        raise OCSError("placement maps two block coords to one physical block")

    wiring = SliceWiring(shape=shape, twisted=twisted, placement=dict(placement),
                         topology=topology)
    for u, v, mult in topology.edges():
        if mult != 1:
            raise TopologyError(
                f"slice link ({u}, {v}) has multiplicity {mult}; block-"
                f"multiple shapes never produce parallel links")
        if is_electrical(u, v):
            wiring.num_electrical_links += 1
            continue
        dim = topology.edge_dim(u, v)
        if u[dim] % FACE_SIDE == FACE_SIDE - 1 and v[dim] % FACE_SIDE == 0:
            plus, minus = u, v
        elif v[dim] % FACE_SIDE == FACE_SIDE - 1 and u[dim] % FACE_SIDE == 0:
            plus, minus = v, u
        else:
            raise OCSError(
                f"optical link ({u}, {v}) does not join a '+' face to a "
                f"'-' face in dim {dim}")
        face_index = _face_position(plus, dim)
        if face_index != _face_position(minus, dim):
            raise OCSError(
                f"optical link ({u}, {v}) changes face position; twists "
                f"must skew by multiples of {FACE_SIDE}")
        low_id = placement[block_of(plus)]
        high_id = placement[block_of(minus)]
        fabric.connect_blocks(dim, face_index, low_id, high_id)
        wiring.circuits.append(Circuit(dim=dim, face_index=face_index,
                                       low_block=low_id, high_block=high_id,
                                       chip_link=(u, v)))
    wiring.verify()
    return wiring


def release_slice(fabric: OCSFabric, wiring: SliceWiring) -> None:
    """Tear down every circuit a slice holds on the fabric."""
    for circuit in wiring.circuits:
        switch = fabric.switch_for(circuit.dim, circuit.face_index)
        switch.disconnect(fabric.port_for(circuit.low_block, "+"))
    wiring.circuits.clear()


# -- block-granularity wiring (the fleet scheduler's view) --------------------
#
# Because the paper's twists skew by multiples of 4, all FACE_SIDE^2 chip
# links of one block face travel to the same destination block, so a
# slice's optical wiring is fully described at *block* granularity: one
# (dim, low_block, high_block) adjacency stands for FACE_LINKS parallel
# chip circuits, one per face position, each on its own switch.

BlockAdjacency = tuple[int, int, int]  # (dim, low_block, high_block)

#: An adjacency over virtual grid *slots* rather than physical blocks:
#: (dim, low_slot, high_slot).  Who occupies a slot — a block of one pod,
#: or of another pod reached over the machine trunk layer — is the
#: caller's degree of freedom.
SlotAdjacency = tuple[int, int, int]


@lru_cache(maxsize=None)
def _grid_adjacency_walk(grid: tuple[int, int, int]
                         ) -> tuple[SlotAdjacency, ...]:
    a, b, c = grid

    def at(i: int, j: int, k: int) -> int:
        return (i * b + j) * c + k

    adjacencies: list[SlotAdjacency] = []
    for i in range(a):
        for j in range(b):
            for k in range(c):
                low = at(i, j, k)
                adjacencies.append((0, low, at((i + 1) % a, j, k)))
                adjacencies.append((1, low, at(i, (j + 1) % b, k)))
                adjacencies.append((2, low, at(i, j, (k + 1) % c)))
    return tuple(adjacencies)


def grid_adjacency_indices(grid: tuple[int, int, int]
                           ) -> list[SlotAdjacency]:
    """Wraparound torus adjacencies of a block grid, in slot indices.

    Slots are row-major grid positions.  Every slot contributes exactly
    one "+"-face adjacency per dimension (its torus neighbor, wrapping),
    so a grid of n slots always yields 3*n adjacencies.  This is the
    layout walk shared by per-pod wiring (:func:`block_torus_adjacencies`)
    and the machine-level trunk classification: the plan price
    (:mod:`repro.core.scheduler`) splits the same adjacencies into
    intra-region and cross-region sets, and the machine fabric's
    block-level wiring (:mod:`repro.fleet.machine`) maps slots onto
    (pod, block) pairs to check it.

    The walk is memoized per grid (the handful of legal slice grids
    recur thousands of times over a fleet run); callers get a fresh
    list copy so the cache can never be mutated through a result.
    """
    return list(_grid_adjacency_walk(grid))


def block_torus_adjacencies(grid: tuple[int, int, int],
                            blocks: list[int]) -> list[BlockAdjacency]:
    """Block-level wraparound torus wiring over `blocks` laid out as `grid`.

    `blocks` are physical block ids assigned row-major to the virtual
    block grid — the scheduler's degree of freedom (Section 2.5: any
    healthy blocks, anywhere).  Every block contributes exactly one
    "+"-face adjacency per dimension (its torus neighbor, wrapping), so
    a slice of n blocks always needs 3*n adjacencies = 48*n chip
    circuits.  A dimension of extent 1 wraps a block onto itself, which
    is a legal circuit (the single-block wraparound of Figure 1).
    """
    a, b, c = grid
    if a * b * c != len(blocks):
        raise OCSError(
            f"grid {grid} does not cover {len(blocks)} blocks")
    return [(dim, blocks[low], blocks[high])
            for dim, low, high in grid_adjacency_indices(grid)]

