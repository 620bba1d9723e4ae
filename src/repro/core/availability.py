"""Goodput under CPU-host failures (paper Figure 4).

Each of the ~1K hosts is unavailable 0.1%-1.0% of the time; a block needs
all 16 hosts up to be schedulable.  The OCS machine packs slices onto ANY
healthy blocks; the static machine needs contiguous cuboids.  Goodput is
the fraction of the machine covered by scheduled slices of the requested
size — including the paper's counterintuitive "spares" staircase: one 2K
slice from a 4K machine leaves 50% goodput even at perfect availability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.block import HOSTS_PER_BLOCK
from repro.core.scheduler import PlacementPolicy, SliceScheduler, _grid_dims
from repro.core.slicing import SliceShape
from repro.errors import SchedulingError
from repro.sim.rng import make_rng

MACHINE_BLOCKS_DEFAULT = 64
CHIPS_PER_BLOCK = 64
#: Largest machine the goodput models price: a 16x16x16 block grid, 64
#: times the paper's.  The exact curve's integers grow with the count.
MAX_GOODPUT_BLOCKS = 4096
#: Most block draws one Monte Carlo run may make (trials x blocks).
MAX_SAMPLED_BLOCKS = 10**6


def balanced_block_shape(slice_chips: int) -> SliceShape:
    """The most cube-like legal shape for a chip count (Figure 4 slices).

    >>> balanced_block_shape(512)
    (8, 8, 8)
    >>> balanced_block_shape(128)
    (4, 4, 8)
    """
    if slice_chips < CHIPS_PER_BLOCK:
        raise SchedulingError(
            f"goodput slices are >= {CHIPS_PER_BLOCK} chips, got {slice_chips}")
    if slice_chips % CHIPS_PER_BLOCK:
        raise SchedulingError(
            f"slice chips must be a multiple of {CHIPS_PER_BLOCK}")
    blocks = slice_chips // CHIPS_PER_BLOCK
    best: tuple[int, tuple[int, int, int]] | None = None
    for i in range(1, blocks + 1):
        if blocks % i:
            continue
        for j in range(i, blocks + 1):
            if (blocks // i) % j:
                continue
            k = blocks // (i * j)
            if k < j:
                continue
            spread = k - i
            if best is None or spread < best[0]:
                best = (spread, (i, j, k))
    assert best is not None
    i, j, k = best[1]
    return (4 * i, 4 * j, 4 * k)


def _check_count(name: str, value: object) -> None:
    """Reject a count that is not a Python or numpy integer (or is a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SchedulingError(f"{name} must be an integer, got {value!r}")


def _check_goodput_inputs(slice_chips: int, num_blocks: int,
                          availability: float = 1.0) -> None:
    """Reject the inputs the Figure 4 goodput models cannot price."""
    _check_count("slice_chips", slice_chips)
    _check_count("num_blocks", num_blocks)
    if slice_chips < CHIPS_PER_BLOCK or slice_chips % CHIPS_PER_BLOCK:
        raise SchedulingError(
            f"slice chips must be a positive multiple of {CHIPS_PER_BLOCK}, "
            f"got {slice_chips}")
    if not 1 <= num_blocks <= MAX_GOODPUT_BLOCKS:
        raise SchedulingError(
            f"num_blocks must be in [1, {MAX_GOODPUT_BLOCKS}], got {num_blocks}")
    if not 0.0 < availability <= 1.0:
        raise SchedulingError(
            f"availability must be in (0, 1], got {availability}")


@dataclass
class GoodputResult:
    """Monte Carlo goodput estimate for one (slice size, availability)."""

    slice_chips: int
    availability: float
    policy: PlacementPolicy
    mean_goodput: float
    std_goodput: float
    trials: int


def _sample_block_health(rng: np.random.Generator, availability: float,
                         num_blocks: int) -> list[bool]:
    """Independently fail hosts; a block is healthy iff all 16 are up."""
    ups = rng.random((num_blocks, HOSTS_PER_BLOCK)) <= availability
    return [bool(row.all()) for row in ups]


def simulate_goodput(slice_chips: int, availability: float, *,
                     use_ocs: bool = True,
                     trials: int = 200,
                     num_blocks: int = MACHINE_BLOCKS_DEFAULT,
                     seed: int = 0) -> GoodputResult:
    """Monte Carlo of Figure 4: pack slices after random host failures."""
    _check_goodput_inputs(slice_chips, num_blocks, availability)
    _check_count("trials", trials)
    if trials < 1:
        raise SchedulingError(f"trials must be >= 1, got {trials}")
    grid = _grid_dims(num_blocks)
    if int(trials) * int(num_blocks) > MAX_SAMPLED_BLOCKS:
        raise SchedulingError(
            f"trials * num_blocks must be <= {MAX_SAMPLED_BLOCKS}, got "
            f"trials={trials} with num_blocks={num_blocks}")
    policy = PlacementPolicy.OCS if use_ocs else PlacementPolicy.STATIC
    shape = balanced_block_shape(slice_chips)
    rng = make_rng(seed)
    samples = np.empty(trials)
    for trial in range(trials):
        healthy = _sample_block_health(rng, availability, num_blocks)
        scheduler = SliceScheduler(healthy, grid)
        samples[trial] = scheduler.pack(shape, policy).goodput
    return GoodputResult(
        slice_chips=slice_chips,
        availability=availability,
        policy=policy,
        mean_goodput=float(samples.mean()),
        std_goodput=float(samples.std()),
        trials=trials,
    )


def analytic_ocs_goodput(slice_chips: int, availability: float, *,
                         num_blocks: int = MACHINE_BLOCKS_DEFAULT) -> float:
    """Exact OCS goodput: E[floor(H / b)] * b / N over H ~ Binom(N, a^16).

    H is the number of healthy blocks; with OCS any healthy block is
    usable, so the packed slice count is floor(H / blocks_per_slice).
    With a^16 = up / whole exactly (``whole`` a power of two), the
    expectation is a sum of integers over ``whole**N``, so the one true
    division at the end rounds correctly.
    """
    _check_goodput_inputs(slice_chips, num_blocks, availability)
    # Python ints: a numpy count would overflow the exact sum.
    num_blocks = int(num_blocks)
    blocks_per_slice = int(slice_chips) // CHIPS_PER_BLOCK
    up, whole = (availability**HOSTS_PER_BLOCK).as_integer_ratio()
    down = whole - up
    if down == 0:
        return num_blocks // blocks_per_slice * blocks_per_slice / num_blocks
    # term = C(N, h) * up**h * down**(N - h): the pmf at h times whole**N.
    term, slices = down**num_blocks, 0
    for healthy in range(1, num_blocks + 1):
        term = term * (num_blocks - healthy + 1) * up // (healthy * down)
        slices += term * (healthy // blocks_per_slice)
    return slices * blocks_per_slice / (whole**num_blocks * num_blocks)


def spares_staircase(slice_chips: int,
                     num_blocks: int = MACHINE_BLOCKS_DEFAULT) -> float:
    """The paper's 'spares' goodput ceiling once ANY block is down.

    At 99.0%-99.5% host availability at least one of 1024 hosts is down
    essentially always, so at most num_blocks-1 blocks are usable: three 1K
    slices from a 4K machine (75%), one 2K slice (50%), one 3K slice (75%),
    and no 4K slice at all.
    """
    _check_goodput_inputs(slice_chips, num_blocks)
    blocks_per_slice = slice_chips // CHIPS_PER_BLOCK
    usable = num_blocks - 1
    return (usable // blocks_per_slice) * blocks_per_slice / num_blocks
