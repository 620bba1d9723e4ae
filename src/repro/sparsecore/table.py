"""Embedding tables: the lookup tables behind categorical features.

A table holds `vocab_size` rows of `dim` floats; a batch lookup gathers
rows and combines multivalent sets by sum or mean (Section 3.2's example:
80,000 words x width 100).  Training uses Adagrad, the standard optimizer
for production embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import make_rng
from repro.sparsecore.features import FeatureBatch


@dataclass
class EmbeddingTable:
    """One embedding lookup table with its optimizer state."""

    name: str
    vocab_size: int
    dim: int
    weights: np.ndarray | None = None
    adagrad_accumulator: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.vocab_size < 1 or self.dim < 1:
            raise ConfigurationError(
                f"{self.name}: vocab_size and dim must be >= 1")
        if self.weights is None:
            rng = make_rng(abs(hash(self.name)) % (2**31))
            scale = 1.0 / np.sqrt(self.dim)
            self.weights = rng.normal(0.0, scale,
                                      size=(self.vocab_size, self.dim))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.vocab_size, self.dim):
            raise ConfigurationError(
                f"{self.name}: weights shape {self.weights.shape} != "
                f"({self.vocab_size}, {self.dim})")
        if self.adagrad_accumulator is None:
            self.adagrad_accumulator = np.full((self.vocab_size,), 0.1)

    @property
    def num_parameters(self) -> int:
        """Rows x dim."""
        return self.vocab_size * self.dim

    @property
    def bytes(self) -> int:
        """Table size at 4 bytes per embedding parameter (Figure 17)."""
        return self.num_parameters * 4

    # -- functional ops ----------------------------------------------------------

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Fetch rows for ids (no combining)."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ConfigurationError(f"{self.name}: ids out of range")
        return self.weights[ids]

    def lookup(self, batch: FeatureBatch) -> np.ndarray:
        """Combined per-example activations, shape (batch_size, dim)."""
        rows = self.gather(batch.ids)
        out = np.zeros((batch.batch_size, self.dim))
        segments = np.repeat(np.arange(batch.batch_size),
                             batch.valencies())
        np.add.at(out, segments, rows)
        if batch.feature.combiner == "mean":
            counts = np.maximum(batch.valencies(), 1)[:, None]
            out = out / counts
        return out

    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray, *,
                        learning_rate: float = 0.01) -> None:
        """Adagrad update on the touched rows (duplicate ids accumulate)."""
        ids = np.asarray(ids, dtype=np.int64)
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != (len(ids), self.dim):
            raise ConfigurationError(
                f"{self.name}: grads shape {grads.shape} mismatched")
        unique, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((len(unique), self.dim))
        np.add.at(summed, inverse, grads)
        self.adagrad_accumulator[unique] += np.sum(summed**2, axis=1)
        steps = learning_rate / np.sqrt(self.adagrad_accumulator[unique])
        self.weights[unique] -= steps[:, None] * summed
