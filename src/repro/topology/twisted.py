"""Twisted 3D tori (Camarero, Martinez, Beivide lattice graphs).

TPU v4 can "rewire" the OCS-provided wraparound links of a rectangular
torus so that wrapping around a short dimension lands the traffic halfway
around a long dimension.  The electrical links inside 4x4x4 blocks never
move; only the optical routing tables change (paper Figure 5).

A twist is expressed as a *skew vector* applied when traffic wraps around a
given dimension: wrapping ``x`` from ``a-1`` back to ``0`` lands at
``(0, (y + s_y) mod b, (z + s_z) mod c)``.  This construction is exactly a
quotient of the integer lattice Z^3 by the lattice spanned by
``(a, -s_y, -s_z), (0, b, 0), (0, 0, c)``, so the resulting graph is a
Cayley graph of an abelian group and therefore vertex-transitive.  Several
dimensions may twist, provided no twist skews another twisted dimension.
Otherwise the wiring adds that skew modulo a plain ring, where the lattice
quotient would carry it through the other dimension's own twist; the graph
is then not vertex-transitive, so such specs raise :class:`TopologyError`.

The paper (Section 2.8/2.9) twists shapes of the form ``n x n x 2n`` and
``n x 2n x 2n`` with ``n >= 4``, using the ``k x k x 2k`` configuration of
Camarero et al. [8].
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.coords import Coord, Shape, iter_coords, validate_shape

Skew = tuple[int, int, int]
TwistSpec = Mapping[int, Skew]


def is_twistable(shape: Shape) -> bool:
    """True when the paper's twist rule applies: n*n*2n or n*2n*2n, n >= 4.

    >>> is_twistable((4, 4, 8)), is_twistable((4, 8, 8)), is_twistable((4, 4, 4))
    (True, True, False)
    """
    a, b, c = sorted(validate_shape(shape))
    if a < 4:
        return False
    return (a == b and c == 2 * a) or (b == 2 * a and c == 2 * a)


class TwistedTorus3D(Topology):
    """A 3D torus whose wraparound links apply per-dimension skews."""

    kind = "twisted-torus"
    vertex_transitive = True

    def __init__(self, shape: tuple[int, int, int],
                 twists: TwistSpec | None = None) -> None:
        dims = validate_shape(shape)
        if twists is None:
            twists = canonical_twist(dims)
        self.twists: dict[int, Skew] = {}
        for dim, skew in twists.items():
            if dim not in (0, 1, 2):
                raise TopologyError(f"twist dimension must be 0..2, got {dim}")
            if skew[dim] % dims[dim] != 0:
                raise TopologyError(
                    f"twist of dim {dim} cannot skew itself: {skew}")
            reduced = tuple(s % dims[i] for i, s in enumerate(skew))
            if any(reduced):
                self.twists[dim] = reduced  # type: ignore[assignment]
        for dim, skew in self.twists.items():
            if any(skew[other] for other in self.twists):
                raise TopologyError(
                    f"twist of dim {dim} skews another twisted dim: {skew}")
        super().__init__(dims)

    def _edges(self) -> Iterator[tuple[Coord, Coord, int]]:
        for node in iter_coords(self.shape):
            for dim in range(3):
                size = self.shape[dim]
                if size == 1:
                    continue
                skew = self.twists.get(dim, (0, 0, 0))
                if node[dim] + 1 < size:
                    succ = list(node)
                    succ[dim] = node[dim] + 1
                    yield node, (succ[0], succ[1], succ[2]), dim
                    continue
                # Wraparound: land on index 0 of `dim`, skewed in the others.
                target = [(node[i] + skew[i]) % self.shape[i] for i in range(3)]
                target[dim] = 0
                wrapped = (target[0], target[1], target[2])
                # An untwisted dimension of size 2 would duplicate the
                # internal link; mirror Torus3D and skip it.
                if size == 2 and not any(skew):
                    continue
                yield node, wrapped, dim

    def describe(self) -> str:
        twist_txt = ", ".join(f"dim{d}->{s}" for d, s in sorted(self.twists.items()))
        return super().describe() + f" [twists: {twist_txt or 'none'}]"


def _twist_candidates(shape: Shape) -> list[dict[int, Skew]]:
    """Enumerate plausible half-dimension skews for a shape.

    For each wrap dimension we try skewing each other dimension by half its
    size, alone and pairwise, which covers the k*k*2k single twist and the
    n*2n*2n double twist from the paper's references.
    """
    candidates: list[dict[int, Skew]] = []
    for dim in range(3):
        others = [d for d in range(3) if d != dim and shape[d] >= 2]
        options: list[Skew] = []
        for pick in range(1, 4):
            skew = [0, 0, 0]
            use = [others[i] for i in range(len(others)) if pick >> i & 1]
            if not use:
                continue
            for d in use:
                skew[d] = shape[d] // 2
            options.append((skew[0], skew[1], skew[2]))
        for option in options:
            candidates.append({dim: option})
    # Deduplicate identical specs (degenerate shapes collapse options).
    unique: list[dict[int, Skew]] = []
    for cand in candidates:
        if cand not in unique:
            unique.append(cand)
    return unique


def canonical_twist(shape: Shape) -> dict[int, Skew]:
    """The paper's twist for a twistable shape.

    For ``k x k x 2k`` the wraparound of the first short dimension skews the
    long dimension by k.  For ``n x 2n x 2n`` the wraparound of the short
    dimension skews both long dimensions by n.  Shapes are accepted in any
    dimension order.
    """
    if not is_twistable(shape):
        raise TopologyError(
            f"shape {shape} is not twistable (needs n*n*2n or n*2n*2n, n>=4)")
    a = min(shape)
    long_dims = [d for d in range(3) if shape[d] == 2 * a]
    short_dims = [d for d in range(3) if shape[d] == a]
    skew = [0, 0, 0]
    for d in long_dims:
        skew[d] = a
    return {short_dims[0]: (skew[0], skew[1], skew[2])}


def figure5_example() -> dict[str, list[tuple[Coord, Coord]]]:
    """Regenerate the wiring lists behind paper Figure 5 (4x2 slice).

    The figure is drawn in 2D: a 4-wide, 2-tall slice.  Electrical links
    (fixed) join neighbors inside the slice; optical links (reconfigurable)
    provide the wraparound.  The twisted variant redirects the short
    dimension's wraparound diagonally by half the long dimension, without
    touching any electrical link.

    Returns a dict with 'electrical', 'regular_optical' and
    'twisted_optical' undirected link lists over coordinates (x, y, 0).
    """
    width, height = 4, 2
    electrical: list[tuple[Coord, Coord]] = []
    for x, y in itertools.product(range(width), range(height)):
        if x + 1 < width:
            electrical.append(((x, y, 0), (x + 1, y, 0)))
        if y + 1 < height:
            electrical.append(((x, y, 0), (x, y + 1, 0)))
    regular_optical: list[tuple[Coord, Coord]] = []
    for y in range(height):
        regular_optical.append(((width - 1, y, 0), (0, y, 0)))
    for x in range(width):
        regular_optical.append(((x, height - 1, 0), (x, 0, 0)))
    twisted_optical: list[tuple[Coord, Coord]] = []
    for y in range(height):
        twisted_optical.append(((width - 1, y, 0), (0, y, 0)))
    for x in range(width):
        # Wrapping the short (y) dimension skews x by half the long dim.
        twisted_optical.append(
            ((x, height - 1, 0), ((x + width // 2) % width, 0, 0)))
    return {
        "electrical": electrical,
        "regular_optical": regular_optical,
        "twisted_optical": twisted_optical,
    }
