"""Collective prices on the torus dimensions of a slice axis.

A mesh axis (data / model1 / model2 / pipeline) spans one or more whole
torus dimensions (Section 2.7: "users map data parallelism along one
dimension of the 3D torus and the two model parallel parameters on the
other dimensions"), and GSPMD (Xu et al. [63]) inserts each collective
on one axis.  A collective's price therefore depends only on the
dimensions its axis spans, which :class:`AxisGeometry` holds, and every
model prices its collectives here:

* all-reduce and all-gather run the production split schedule.  The
  buffer is split into one chunk per ring dimension, and each chunk
  runs its dimension-ordered sweeps starting on a different dimension,
  so the chunks proceed in parallel on disjoint links and the wall time
  is the slowest chunk's.  A sweep over a ring of n moves (n-1)/n of the
  shard through every node, over both ring directions on a torus and
  one on a mesh.  Each ring step adds a latency `alpha`.
* all-to-all reads the exact ECMP per-node throughput of
  :func:`repro.network.analytic.alltoall_analysis` on the axis's own
  sub-topology (a torus, or a mesh without wraparound).

The graph simulator (Section 7.10), the Section 7.9 recommender
exchange and the WDM study use the geometry as is.  Table 3's cost model
and Section 7.3's torus all-reduce take its bandwidth term
(``alpha=0.0``) and add their own calibrated latency terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.network.analytic import alltoall_analysis
from repro.topology.builder import build_topology

# Per-hop latency of one collective step on ICI: DMA launch + switch
# traversal.  Figure 6's microbenchmark uses 4 KiB DMAs at 50 GB/s
# (~80 ns serialization); software overhead dominates at ~1-2 us per
# step, so we default to the conservative end.
DEFAULT_ALPHA = 1e-6


def _check_bytes(num_bytes: float) -> None:
    if not (math.isfinite(num_bytes) and num_bytes >= 0):
        raise ConfigurationError(
            f"num_bytes must be finite and >= 0, got {num_bytes}")


@lru_cache(maxsize=None)
def _alltoall_rate(rings: tuple[int, ...], wrap: bool) -> float:
    """Exact all-to-all bytes/s per node, per unit of link bandwidth."""
    shape = rings + (1,) * (3 - len(rings))
    topology = build_topology(shape, wrap=wrap)
    return alltoall_analysis(topology, 1.0).per_node_throughput


@dataclass(frozen=True)
class AxisGeometry:
    """The torus sub-shape one mesh axis spans.

    Attributes:
        ring_sizes: sizes of the one to three torus dimensions the axis
            occupies; their product is the axis (group) size.
        link_bandwidth: per-direction bandwidth of one ICI link (B/s).
        wrap: True when the dimensions close into rings (torus); False
            for sub-4^3 mesh slices, which halve usable ring bandwidth.
        alpha: fixed latency per collective step (seconds).
    """

    ring_sizes: tuple[int, ...]
    link_bandwidth: float
    wrap: bool = True
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 1 <= len(self.ring_sizes) <= 3:
            raise ConfigurationError(
                f"an axis spans one to three torus dimensions, got ring "
                f"sizes {self.ring_sizes}")
        for n in self.ring_sizes:
            if not (isinstance(n, numbers.Integral) and n >= 1):
                raise ConfigurationError(
                    f"ring sizes must be integers >= 1, got {n!r}")
        if not (math.isfinite(self.link_bandwidth)
                and self.link_bandwidth > 0):
            raise ConfigurationError(
                f"link_bandwidth must be finite and > 0, "
                f"got {self.link_bandwidth}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(
                f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def size(self) -> int:
        """Number of chips in the axis group."""
        return math.prod(self.ring_sizes)

    @property
    def directions(self) -> int:
        """Concurrent send directions per ring (2 on a torus, 1 on a mesh)."""
        return 2 if self.wrap else 1

    # -- collective times ----------------------------------------------------

    def allreduce(self, num_bytes: float) -> float:
        """Split-schedule all-reduce of `num_bytes` per chip."""
        return (self._split_time(num_bytes, reduce=True)
                + self.alpha * self.num_steps())

    def allgather(self, num_bytes: float) -> float:
        """All-gather whose *result* is `num_bytes` per chip.

        The all-gather half of the split schedule: each chunk's shard
        grows by every ring size in turn.
        """
        return (self._split_time(num_bytes, reduce=False)
                + self.alpha * self.num_steps() / 2)

    def alltoall(self, num_bytes: float) -> float:
        """All-to-all where each chip exchanges `num_bytes` in total.

        Priced at the exact ECMP per-node throughput of the axis's own
        torus (or mesh), computed once per (rings, wrap).
        """
        _check_bytes(num_bytes)
        rings = tuple(self._rings())
        if not rings:
            return 0.0
        rate = _alltoall_rate(rings, self.wrap) * self.link_bandwidth
        return num_bytes / rate + self.alpha

    # -- helpers ---------------------------------------------------------------

    def _split_time(self, num_bytes: float, *, reduce: bool) -> float:
        """Bandwidth term of the split schedule (the slowest chunk).

        Chunk i reduce-scatters over the rings starting at ring i, the
        shard shrinking by each ring size, then all-gathers back in
        reverse order; with `reduce` False only the all-gather counts.
        """
        _check_bytes(num_bytes)
        rings = self._rings()
        if not rings:
            return 0.0
        bandwidth = self.directions * self.link_bandwidth
        chunk = num_bytes / len(rings)
        slowest = 0.0
        for i in range(len(rings)):
            order = rings[i:] + rings[:i]
            total = 0.0
            shard = chunk
            for n in order:                      # reduce-scatter sweeps
                if reduce:
                    total += (n - 1) / n * shard / bandwidth
                shard /= n
            for n in reversed(order):            # all-gather sweeps
                shard *= n
                total += (n - 1) / n * shard / bandwidth
            slowest = max(slowest, total)
        return slowest

    def _rings(self) -> list[int]:
        return [n for n in self.ring_sizes if n >= 2]

    def num_steps(self) -> int:
        """Ring steps of a full all-reduce (latency term)."""
        return sum(2 * (n - 1) for n in self._rings())


def ring_allreduce_time(ring_size: int, num_bytes: float,
                        link_bandwidth: float) -> float:
    """Bidirectional-ring all-reduce on one ring, without latency.

    Reduce-scatter and all-gather each move (n-1)/n of the buffer through
    every node, and the two ring directions each carry half.
    """
    return AxisGeometry((ring_size,), link_bandwidth,
                        alpha=0.0).allreduce(num_bytes)


def allreduce_lower_bound(shape: tuple[int, int, int], num_bytes: float,
                          link_bandwidth: float) -> float:
    """Bandwidth lower bound: 2*(N-1)/N * bytes over all injection ports."""
    n = shape[0] * shape[1] * shape[2]
    ports = 2 * len([d for d in shape if d >= 2])
    if ports == 0 or n < 2:
        return 0.0
    return 2 * (n - 1) / n * num_bytes / (ports * link_bandwidth)
