"""Partitioning specifications (Table 3's hyperparameter tuples).

A spec is [pipeline, data, model1, model2] plus the activation/weight
sharding mode ('1D' or '2D'), written the way the paper prints them:
"[16,4,1,8], 1D/1D".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Sharding:
    """Activation / weight partitioning dimensionality."""

    activations: str = "2D"
    weights: str = "2D"

    def __post_init__(self) -> None:
        for field_value in (self.activations, self.weights):
            if field_value not in ("1D", "2D"):
                raise ConfigurationError(
                    f"sharding must be '1D' or '2D', got {field_value!r}")

    @property
    def label(self) -> str:
        """Paper notation, e.g. '1D/2D'."""
        return f"{self.activations}/{self.weights}"


@dataclass(frozen=True)
class PartitionSpec:
    """[pipeline, data, model1, model2] + sharding."""

    pipeline: int
    data: int
    model1: int
    model2: int
    sharding: Sharding = Sharding()

    def __post_init__(self) -> None:
        for axis in (self.pipeline, self.data, self.model1, self.model2):
            if axis < 1:
                raise ConfigurationError(
                    f"partition axes must be >= 1, got {self.axes}")

    @property
    def axes(self) -> tuple[int, int, int, int]:
        """(pipeline, data, model1, model2)."""
        return (self.pipeline, self.data, self.model1, self.model2)

    @property
    def num_chips(self) -> int:
        """Chips the spec occupies."""
        return self.pipeline * self.data * self.model1 * self.model2

    @property
    def label(self) -> str:
        """Paper notation: '[p,d,m1,m2], act/weight'."""
        return (f"[{self.pipeline},{self.data},{self.model1},{self.model2}]"
                f", {self.sharding.label}")

    def __str__(self) -> str:
        return self.label
