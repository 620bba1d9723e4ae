"""Coordinate arithmetic for 3D node grids.

Nodes are addressed by integer coordinates ``(x, y, z)`` inside a shape
``(a, b, c)``.  All helpers are pure functions so they are trivially
property-testable.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.errors import TopologyError

Coord = tuple[int, int, int]
Shape = tuple[int, int, int]


def validate_shape(shape: Sequence[int]) -> Shape:
    """Check that a shape is a 3-tuple of positive integers and return it.

    >>> validate_shape([4, 4, 8])
    (4, 4, 8)
    """
    if len(shape) != 3:
        raise TopologyError(f"shape must have 3 dimensions, got {tuple(shape)}")
    dims = tuple(int(d) for d in shape)
    if any(d < 1 for d in dims):
        raise TopologyError(f"shape dimensions must be >= 1, got {dims}")
    return dims  # type: ignore[return-value]


def iter_coords(shape: Shape) -> Iterator[Coord]:
    """Yield every coordinate in row-major (x, y, z) order."""
    for x, y, z in itertools.product(*(range(d) for d in shape)):
        yield (x, y, z)


def coord_to_index(coord: Coord, shape: Shape) -> int:
    """Row-major linear index of a coordinate.

    >>> coord_to_index((1, 0, 0), (2, 3, 4))
    12
    """
    x, y, z = coord
    a, b, c = shape
    if not (0 <= x < a and 0 <= y < b and 0 <= z < c):
        raise TopologyError(f"coordinate {coord} outside shape {shape}")
    return (x * b + y) * c + z


def index_to_coord(index: int, shape: Shape) -> Coord:
    """Inverse of :func:`coord_to_index`.

    >>> index_to_coord(12, (2, 3, 4))
    (1, 0, 0)
    """
    a, b, c = shape
    if not 0 <= index < a * b * c:
        raise TopologyError(f"index {index} outside shape {shape}")
    x, rem = divmod(index, b * c)
    y, z = divmod(rem, c)
    return (x, y, z)


def ring_distance(a: int, b: int, size: int) -> int:
    """Distance between positions on a ring of the given size.

    >>> ring_distance(0, 3, 4)
    1
    """
    d = abs(a - b) % size
    return min(d, size - d)


def num_nodes(shape: Shape) -> int:
    """Total node count of a shape."""
    a, b, c = shape
    return a * b * c
