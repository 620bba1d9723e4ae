"""Collective-communication models on torus slices.

Two layers:

* **Time models** — closed-form step times for bandwidth-dominated
  all-reduce on a torus with per-direction link bandwidth C:

  - ring all-reduce along one dimension of length n moves
    2*(n-1)/n * bytes through each node, split across the ring's two
    directions;
  - the dimension-ordered torus all-reduce reduce-scatters dimension by
    dimension (shrinking the shard each time) and all-gathers back;
  - the bandwidth-optimal bound uses all 2*d directed ports concurrently.

  All-to-all throughput on a torus comes from exact ECMP link loads in
  :mod:`repro.network.analytic`.

* **Functional executions** — the same schedules executed over numpy
  arrays, proving the schedule logic is real (tests compare against a
  direct sum / concatenation).
"""

from __future__ import annotations

import math

import numpy as np

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


# --------------------------------------------------------------------------
# Functional executions (numpy) — prove the schedules compute the right thing.
# --------------------------------------------------------------------------

def functional_ring_allreduce(buffers: list[np.ndarray]) -> list[np.ndarray]:
    """Execute a literal ring all-reduce (reduce-scatter + all-gather).

    Returns the per-node results; every node ends with the elementwise sum.
    """
    n = len(buffers)
    if n == 0:
        raise ConfigurationError("need at least one participant")
    if n == 1:
        return [buffers[0].copy()]
    length = buffers[0].shape[0]
    chunks = [np.array_split(b.astype(np.float64, copy=True), n)
              for b in buffers]
    # Reduce-scatter: step s, node i sends chunk (i - s) to node i+1.
    for step in range(n - 1):
        sends = [(i, (i - step) % n) for i in range(n)]
        for src, chunk_id in sends:
            dst = (src + 1) % n
            chunks[dst][chunk_id] = chunks[dst][chunk_id] + chunks[src][chunk_id]
    # Now node i owns the fully-reduced chunk (i + 1) % n.
    # All-gather: circulate owned chunks around the ring.
    for step in range(n - 1):
        sends = [(i, (i + 1 - step) % n) for i in range(n)]
        for src, chunk_id in sends:
            dst = (src + 1) % n
            chunks[dst][chunk_id] = chunks[src][chunk_id].copy()
    results = [np.concatenate(c) for c in chunks]
    for r in results:
        if r.shape[0] != length:
            raise ConfigurationError("all-reduce result shape mismatch")
    return results


def functional_alltoall(buffers: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """Execute an all-to-all: buffers[i][j] travels from node i to node j.

    Returns received[j][i] == buffers[i][j] (the standard transpose).
    """
    n = len(buffers)
    for i, row in enumerate(buffers):
        if len(row) != n:
            raise ConfigurationError(
                f"node {i} provides {len(row)} chunks for {n} nodes")
    return [[buffers[i][j].copy() for i in range(n)] for j in range(n)]
