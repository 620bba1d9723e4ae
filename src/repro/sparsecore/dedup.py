"""Deduplication of frequent feature values (Section 3.4).

Skewed categorical data repeats hot ids constantly; deduplicating before
the gather reduces memory accesses, interconnect bytes, and load imbalance.
The cross-channel units implement this in hardware; here it is the
functional kernel plus its savings accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DedupResult:
    """Unique ids plus the inverse map reconstructing the original order."""

    unique_ids: np.ndarray
    inverse: np.ndarray

    @property
    def num_unique(self) -> int:
        """Distinct ids."""
        return len(self.unique_ids)

    @property
    def num_original(self) -> int:
        """Lookups before dedup."""
        return len(self.inverse)


def dedup_ids(ids: np.ndarray) -> DedupResult:
    """Unique + inverse (the hardware's sort-then-unique pipeline).

    >>> r = dedup_ids(np.array([5, 3, 5, 5]))
    >>> r.unique_ids.tolist(), r.inverse.tolist()
    ([3, 5], [1, 0, 1, 1])
    """
    ids = np.asarray(ids, dtype=np.int64)
    unique, inverse = np.unique(ids, return_inverse=True)
    return DedupResult(unique_ids=unique, inverse=inverse)


def dedup_savings(ids: np.ndarray) -> float:
    """Fraction of lookups eliminated (0 = nothing repeated).

    >>> dedup_savings(np.array([1, 1, 1, 1]))
    0.75
    """
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        return 0.0
    return 1.0 - len(np.unique(ids)) / len(ids)
