"""Load imbalance of embedding lookups across a supercomputer.

"The unstructured sparsity of embeddings is also prone to compute,
memory, and communication load imbalances across a supercomputer.  To
reduce load imbalance, deduplication of frequent feature values is
commonly used" (Section 3.4).

Feature-id popularity is heavy-tailed (Zipfian); with row sharding the
chips owning hot rows receive disproportionate gather traffic, and the
step time follows the *most loaded* chip.  Deduplication collapses the
repeats of hot ids inside each batch before they hit HBM or ICI, which
both shrinks total traffic and flattens the per-chip distribution —
this module quantifies each effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class LoadStats:
    """Per-chip load distribution of one lookup wave.

    Attributes:
        loads: rows requested from each chip (post-dedup if applied).
        total_ids: ids before deduplication.
    """

    loads: np.ndarray
    total_ids: int

    @property
    def num_chips(self) -> int:
        """Chips sharing the tables."""
        return int(self.loads.size)

    @property
    def mean_load(self) -> float:
        """Average rows per chip."""
        return float(self.loads.mean())

    @property
    def max_load(self) -> float:
        """Rows on the busiest chip — what the step time follows."""
        return float(self.loads.max())

    @property
    def imbalance(self) -> float:
        """max/mean load ratio (1.0 = perfectly balanced)."""
        mean = self.mean_load
        return self.max_load / mean if mean > 0 else 1.0

    @property
    def dedup_savings(self) -> float:
        """Fraction of ids removed by deduplication."""
        if self.total_ids == 0:
            return 0.0
        return 1.0 - float(self.loads.sum()) / self.total_ids


def zipf_ids(num_ids: int, vocab: int, *, alpha: float = 1.1,
             seed: int = 0) -> np.ndarray:
    """Sample feature ids from a truncated Zipf(alpha) over `vocab` rows.

    Uses the standard rank-frequency law p(r) ~ 1/r^alpha with ranks
    randomly permuted over the vocabulary (hot ids are arbitrary rows,
    not row 0).
    """
    if num_ids < 0:
        raise ConfigurationError(f"num_ids must be >= 0, got {num_ids}")
    if vocab < 1:
        raise ConfigurationError(f"vocab must be >= 1, got {vocab}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    rng = make_rng(seed)
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    weights = ranks ** -alpha
    weights /= weights.sum()
    permutation = rng.permutation(vocab)
    return permutation[rng.choice(vocab, size=num_ids, p=weights)]


def shard_loads(ids: np.ndarray, num_chips: int, *,
                dedup: bool = True) -> LoadStats:
    """Row-shard lookup traffic over `num_chips` and measure the skew.

    Rows are owned round-robin (`row % num_chips`, the usual mod
    sharding).  With `dedup`, repeated ids inside the wave collapse to
    one gather each, mirroring the SC dedup pipeline.
    """
    if num_chips < 1:
        raise ConfigurationError(f"num_chips must be >= 1, got {num_chips}")
    total = int(ids.size)
    lookups = np.unique(ids) if dedup else ids
    owners = lookups.astype(np.int64) % num_chips
    loads = np.bincount(owners, minlength=num_chips).astype(np.float64)
    return LoadStats(loads=loads, total_ids=total)


@dataclass(frozen=True)
class ImbalanceStudy:
    """Before/after-dedup comparison for one synthetic workload."""

    raw: LoadStats
    deduped: LoadStats

    @property
    def traffic_reduction(self) -> float:
        """Fraction of gather traffic dedup removed."""
        raw_total = self.raw.loads.sum()
        if raw_total == 0:
            return 0.0
        return 1.0 - float(self.deduped.loads.sum()) / float(raw_total)

    def speedup(self) -> float:
        """Step-time gain from dedup: max-load ratio raw/deduped."""
        if self.deduped.max_load == 0:
            return 1.0
        return self.raw.max_load / self.deduped.max_load


def dedup_study(num_ids: int, vocab: int, num_chips: int, *,
                alpha: float = 1.1, seed: int = 0) -> ImbalanceStudy:
    """Sample a Zipf wave and compare sharded loads with/without dedup."""
    ids = zipf_ids(num_ids, vocab, alpha=alpha, seed=seed)
    return ImbalanceStudy(raw=shard_loads(ids, num_chips, dedup=False),
                          deduped=shard_loads(ids, num_chips, dedup=True))


def imbalance_vs_chips(num_ids: int, vocab: int,
                       chip_counts: list[int], *, alpha: float = 1.1,
                       seed: int = 0) -> list[tuple[int, float, float]]:
    """(chips, imbalance raw, imbalance deduped) as the machine grows.

    With a fixed wave size, more chips means fewer rows per chip and a
    noisier maximum — the imbalance the paper says strains large
    slices.
    """
    ids = zipf_ids(num_ids, vocab, alpha=alpha, seed=seed)
    rows = []
    for chips in chip_counts:
        raw = shard_loads(ids, chips, dedup=False)
        deduped = shard_loads(ids, chips, dedup=True)
        rows.append((chips, raw.imbalance, deduped.imbalance))
    return rows
