"""Slice-shape rules (paper Sections 2.5, 2.8, 2.9, Table 2).

The software scheduler requires shapes with x <= y <= z.  Shapes at or
above one block must be 4i x 4j x 4k ("slices don't even need to be a power
of 2").  Sub-block shapes live inside one block's mesh, with every
dimension a divisor of 4.  Twistable shapes are n*n*2n or n*2n*2n with
n >= 4; Table 2 tags them `_T` (twisted) or `_NT` (twistable but untwisted).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError, SchedulingError
from repro.topology.builder import BLOCK_SIDE, is_block_multiple
from repro.topology.twisted import is_twistable

SliceShape = tuple[int, int, int]
_SUB_BLOCK_DIMS = (1, 2, 4)


def cube_shape(num_chips: int) -> SliceShape:
    """The most cubical factorization x <= y <= z of a chip (or block) count.

    Among the factorizations, the first with the least z - x.  Chip
    counts below a 4x4x4 block give sub-block shapes (16 chips -> 2x2x4,
    32 -> 2x4x4), which the machine wires as meshes.
    """
    if num_chips < 1:
        raise ConfigurationError("num_chips must be >= 1")
    best: SliceShape | None = None
    for x in range(1, num_chips + 1):
        if num_chips % x:
            continue
        rest = num_chips // x
        for y in range(x, rest + 1):
            if rest % y:
                continue
            z = rest // y
            if z < y:
                continue
            if best is None or (z - x) < (best[2] - best[0]):
                best = (x, y, z)
    assert best is not None
    return best


@lru_cache(maxsize=None)
def canonical_shape(shape: SliceShape) -> SliceShape:
    """Sort dimensions ascending, the scheduler's x <= y <= z convention.

    Memoized: a pure tuple-to-tuple map that the dispatch loop calls
    for every placement attempt, and a fleet workload only ever draws
    a few dozen distinct shapes.
    """
    dims = tuple(sorted(int(d) for d in shape))
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise SchedulingError(f"invalid slice shape {shape}")
    return dims  # type: ignore[return-value]


def is_legal_shape(shape: SliceShape) -> bool:
    """True when the machine can provision the shape.

    >>> is_legal_shape((4, 4, 12)), is_legal_shape((3, 4, 4))
    (True, False)
    """
    try:
        dims = canonical_shape(shape)
    except SchedulingError:
        return False
    if is_block_multiple(dims):
        return True
    # Sub-block slices must fit inside one 4x4x4 block cleanly.
    return all(d in _SUB_BLOCK_DIMS for d in dims) and max(dims) <= BLOCK_SIDE \
        and not is_block_multiple(dims)


@lru_cache(maxsize=None)
def blocks_needed(shape: SliceShape) -> int:
    """4x4x4 blocks consumed by a slice (sub-block slices use one block).

    Memoized like :func:`canonical_shape`: the fleet sizes every job it
    generates, loads or submits, from a few dozen distinct shapes.  Only
    legal shapes are cached; an illegal one raises on every call.
    """
    dims = canonical_shape(shape)
    if not is_legal_shape(dims):
        raise SchedulingError(f"illegal slice shape {dims}")
    if not is_block_multiple(dims):
        return 1
    return (dims[0] // BLOCK_SIDE) * (dims[1] // BLOCK_SIDE) * \
        (dims[2] // BLOCK_SIDE)


def block_grid(shape: SliceShape) -> tuple[int, int, int]:
    """The slice's extent measured in blocks."""
    dims = canonical_shape(shape)
    if not is_block_multiple(dims):
        raise SchedulingError(f"{dims} is a sub-block shape")
    return (dims[0] // BLOCK_SIDE, dims[1] // BLOCK_SIDE,
            dims[2] // BLOCK_SIDE)


def slice_label(shape: SliceShape, twisted: bool | None = None) -> str:
    """Table 2 notation: '4x4x8_T', '4x4x8_NT', or plain '8x8x8'.

    `twisted=None` labels untwistable shapes; for twistable shapes pass the
    user's choice.
    """
    dims = canonical_shape(shape)
    text = "x".join(str(d) for d in dims)
    if is_twistable(dims):
        if twisted is None:
            raise SchedulingError(
                f"{text} is twistable; specify twisted=True/False")
        return text + ("_T" if twisted else "_NT")
    if twisted:
        raise SchedulingError(f"{text} is not twistable")
    return text


def parse_shape(label: str) -> tuple[SliceShape, bool]:
    """Parse Table 2 notation back to (shape, twisted).

    >>> parse_shape('4x4x8_T')
    ((4, 4, 8), True)
    """
    text = label.strip()
    twisted = False
    if text.endswith("_T"):
        twisted, text = True, text[:-2]
    elif text.endswith("_NT"):
        twisted, text = False, text[:-3]
    try:
        dims = tuple(int(part) for part in text.split("x"))
    except ValueError as exc:
        raise SchedulingError(f"cannot parse slice label {label!r}") from exc
    shape = canonical_shape(dims)  # also validates rank
    if twisted and not is_twistable(shape):
        raise SchedulingError(f"label {label!r} marks untwistable shape _T")
    return shape, twisted


@dataclass(frozen=True)
class SliceClass:
    """Classification of a slice shape for Table 2 / Section 2.9 stats."""

    shape: SliceShape
    chips: int
    sub_block: bool
    twistable: bool
    twisted: bool

    @property
    def category(self) -> str:
        """One of 'sub-block mesh', 'twisted torus', 'twistable untwisted',
        'regular torus'."""
        if self.sub_block:
            return "sub-block mesh"
        if self.twisted:
            return "twisted torus"
        if self.twistable:
            return "twistable untwisted"
        return "regular torus"


def classify_slice(shape: SliceShape, twisted: bool = False) -> SliceClass:
    """Classify a shape the way Section 2.9 buckets production slices."""
    dims = canonical_shape(shape)
    if not is_legal_shape(dims):
        raise SchedulingError(f"illegal slice shape {dims}")
    sub_block = not is_block_multiple(dims)
    twistable = is_twistable(dims)
    if twisted and not twistable:
        raise SchedulingError(f"{dims} cannot twist")
    return SliceClass(shape=dims, chips=dims[0] * dims[1] * dims[2],
                      sub_block=sub_block, twistable=twistable,
                      twisted=twisted)


def legal_block_shapes(num_blocks: int) -> list[SliceShape]:
    """Every x<=y<=z block-multiple shape using exactly `num_blocks` blocks.

    >>> legal_block_shapes(2)
    [(4, 4, 8)]
    """
    shapes = []
    for i in range(1, num_blocks + 1):
        if num_blocks % i:
            continue
        for j in range(i, num_blocks + 1):
            if (num_blocks // i) % j:
                continue
            k = num_blocks // (i * j)
            if k >= j:
                shapes.append((4 * i, 4 * j, 4 * k))
    return sorted(shapes)
