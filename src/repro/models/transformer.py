"""Transformer/LLM configurations and FLOPs laws (Table 3, Figure 15).

Standard decoder/encoder cost model: training a transformer of P
parameters on T tokens costs ~6*P*T FLOPs (Kaplan et al.); per-layer
tensor shapes drive the partitioning cost model in
:mod:`repro.parallelism.costmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TransformerConfig:
    """Shape of one transformer model."""

    name: str
    num_layers: int
    d_model: int
    num_heads: int
    d_ff: int
    seq_len: int
    vocab_size: int = 32_000

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads:
            raise ConfigurationError(
                f"{self.name}: d_model must divide by num_heads")

    @property
    def params_per_layer(self) -> float:
        """Attention (4 d^2) + FFN (2 d d_ff) weights."""
        return 4.0 * self.d_model**2 + 2.0 * self.d_model * self.d_ff

    @property
    def num_params(self) -> float:
        """Total weights (embeddings included)."""
        return (self.num_layers * self.params_per_layer
                + self.vocab_size * self.d_model)

    def flops_per_token(self) -> float:
        """Forward+backward training FLOPs per token (~6 per weight)."""
        return 6.0 * self.num_params


# GPT-3 175B (Table 3's pre-training case study).
GPT3_CONFIG = TransformerConfig(
    name="GPT-3", num_layers=96, d_model=12_288, num_heads=96, d_ff=49_152,
    seq_len=2048, vocab_size=50_257)

# The unnamed internal LLM of Table 3's first case study: sized so that a
# 512-chip TPU v4 slice trains it with pure model parallelism.
LLM_CONFIG = TransformerConfig(
    name="LLM", num_layers=64, d_model=8192, num_heads=64, d_ff=32_768,
    seq_len=1024, vocab_size=32_000)


def model_flops_utilization(achieved_tokens_per_second: float,
                            config: TransformerConfig,
                            num_chips: int,
                            peak_flops_per_chip: float) -> float:
    """MFU: achieved fraction of peak (the paper's PaLM 57.8% figure)."""
    achieved = achieved_tokens_per_second * config.flops_per_token()
    return achieved / (num_chips * peak_flops_per_chip)
