"""Categorical features and CSR-format sparse batches (Section 3.2).

A categorical feature maps each example to a small, variable-length set of
ids from a vocabulary ("multivalent", combined by summing or averaging) or
exactly one id ("univalent").  Batches are stored CSR-style: a flat id
array plus row offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class CategoricalFeature:
    """Schema of one categorical feature.

    Attributes:
        name: feature name (e.g. 'query_words').
        vocab_size: N distinct values.
        avg_valency: mean ids per example (1 = univalent).
        combiner: 'sum' or 'mean' for multivalent combination.
    """

    name: str
    vocab_size: int
    avg_valency: float = 1.0
    combiner: str = "sum"

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ConfigurationError(f"{self.name}: vocab_size must be >= 1")
        if self.avg_valency < 1.0:
            raise ConfigurationError(f"{self.name}: avg_valency must be >= 1")
        if self.combiner not in ("sum", "mean"):
            raise ConfigurationError(
                f"{self.name}: combiner must be 'sum' or 'mean'")

    @property
    def univalent(self) -> bool:
        """True for exactly-one-id features."""
        return self.avg_valency == 1.0


@dataclass
class FeatureBatch:
    """CSR batch for one feature: `ids[offsets[i]:offsets[i+1]]` per row."""

    feature: CategoricalFeature
    ids: np.ndarray       # int64, flat
    offsets: np.ndarray   # int64, len = batch_size + 1, starting at 0

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.ids):
            raise ConfigurationError(
                f"{self.feature.name}: offsets must span the id array")
        if np.any(np.diff(self.offsets) < 0):
            raise ConfigurationError(
                f"{self.feature.name}: offsets must be non-decreasing")
        if len(self.ids) and (self.ids.min() < 0
                              or self.ids.max() >= self.feature.vocab_size):
            raise ConfigurationError(
                f"{self.feature.name}: ids outside vocabulary")

    @property
    def batch_size(self) -> int:
        """Examples in the batch."""
        return len(self.offsets) - 1

    @property
    def total_ids(self) -> int:
        """Total lookups before deduplication."""
        return len(self.ids)

    def valencies(self) -> np.ndarray:
        """Per-example id counts."""
        return np.diff(self.offsets)


def synthetic_batch(feature: CategoricalFeature, batch_size: int, *,
                    seed: int | np.random.Generator = 0,
                    zipf_exponent: float = 1.3) -> FeatureBatch:
    """Draw a realistic skewed batch (Zipf ids, Poisson-ish valency).

    Skewed id popularity is what makes deduplication pay off
    (Section 3.4); the default exponent gives a heavy head.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    rng = make_rng(seed)
    if feature.univalent:
        counts = np.ones(batch_size, dtype=np.int64)
    else:
        counts = 1 + rng.poisson(feature.avg_valency - 1.0, size=batch_size)
    total = int(counts.sum())
    # Zipf over the vocabulary, truncated by rejection-free modulo fold.
    raw = rng.zipf(zipf_exponent, size=total)
    ids = (raw - 1) % feature.vocab_size
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return FeatureBatch(feature=feature, ids=ids.astype(np.int64),
                        offsets=offsets)
