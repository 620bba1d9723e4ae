"""Collective-communication time models on torus slices.

Closed-form step times for bandwidth-dominated all-reduce on a torus
with per-direction link bandwidth C:

* ring all-reduce along one dimension of length n moves
  2*(n-1)/n * bytes through each node, split across the ring's two
  directions;
* the dimension-ordered torus all-reduce reduce-scatters dimension by
  dimension (shrinking the shard each time) and all-gathers back;
* the bandwidth-optimal bound uses all 2*d directed ports concurrently.

All-to-all throughput on a torus comes from exact ECMP link loads in
:mod:`repro.network.analytic`.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def _ring_dims(shape: tuple[int, int, int]) -> list[int]:
    """Dimensions that actually form rings (size >= 2)."""
    return [d for d in shape if d >= 2]


def ring_allreduce_time(ring_size: int, num_bytes: float,
                        link_bandwidth: float) -> float:
    """Bidirectional-ring all-reduce on one ring.

    Reduce-scatter and all-gather each move (n-1)/n of the buffer through
    every node, and the two ring directions each carry half.
    """
    if ring_size < 2:
        return 0.0
    phase = (ring_size - 1) / ring_size * num_bytes / (2 * link_bandwidth)
    return 2 * phase


def allreduce_time_torus(shape: tuple[int, int, int], num_bytes: float,
                         link_bandwidth: float, *,
                         use_all_dims: bool = True) -> float:
    """All-reduce of `num_bytes` per chip on a torus slice.

    With `use_all_dims` (the production schedule) the buffer is split into
    one chunk per torus dimension and each chunk runs its dimension-ordered
    all-reduce starting on a different dimension, so all 6 ports stay busy;
    wall time is the per-chunk time (they proceed in parallel on disjoint
    links).  Without it, a single dimension-ordered pass runs serially.
    """
    if not (math.isfinite(num_bytes) and num_bytes >= 0):
        raise ConfigurationError(
            f"num_bytes must be finite and >= 0, got {num_bytes}")
    if not (math.isfinite(link_bandwidth) and link_bandwidth > 0):
        raise ConfigurationError(
            f"link_bandwidth must be finite and > 0, got {link_bandwidth}")
    dims = _ring_dims(shape)
    if not dims:
        return 0.0

    def pass_time(order: list[int], chunk: float) -> float:
        total = 0.0
        shard = chunk
        for n in order:                      # reduce-scatter sweeps
            total += (n - 1) / n * shard / (2 * link_bandwidth)
            shard /= n
        for n in reversed(order):            # all-gather sweeps
            shard *= n
            total += (n - 1) / n * shard / (2 * link_bandwidth)
        return total

    if not use_all_dims:
        return pass_time(dims, num_bytes)
    chunk = num_bytes / len(dims)
    rotations = [dims[i:] + dims[:i] for i in range(len(dims))]
    return max(pass_time(order, chunk) for order in rotations)


def allreduce_lower_bound(shape: tuple[int, int, int], num_bytes: float,
                          link_bandwidth: float) -> float:
    """Bandwidth lower bound: 2*(N-1)/N * bytes over all injection ports."""
    n = shape[0] * shape[1] * shape[2]
    ports = 2 * len(_ring_dims(shape))
    if ports == 0 or n < 2:
        return 0.0
    return 2 * (n - 1) / n * num_bytes / (ports * link_bandwidth)
