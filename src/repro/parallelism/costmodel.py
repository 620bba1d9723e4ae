"""LLM training step-time under a (topology, partitioning) choice.

The cost model the paper's auto-tuner (Section 4, Table 3) needs: given a
transformer, a slice shape, and a PartitionSpec, estimate step time as

    compute / MXU-efficiency
    + tensor-parallel collective time (per mesh axis, on its torus dims)
    + pipeline bubble
    + data-parallel gradient all-reduce (partially overlapped)

Tensor-parallel communication follows the GSPMD accounting (Xu et al.
[63], the paper's reference for the 1D/2D options): per layer, each mesh
axis carries activation-sized collectives; 2D weight sharding shrinks the
per-chip volume by the other axis, 2D activation sharding adds resharding
collectives (more, smaller steps with per-step latency).  Each all-reduce
takes the bandwidth term of the split schedule on the torus dimensions
its axis spans (:class:`~repro.network.collectives.AxisGeometry` with
``alpha=0.0``); the per-step latency is this model's own
`collective_step_latency`.  Coefficients are calibrated against Table
3's four published throughputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.transformer import TransformerConfig
from repro.network.collectives import AxisGeometry
from repro.parallelism.mapping import map_axes_to_torus
from repro.parallelism.spec import PartitionSpec


@dataclass(frozen=True)
class LLMCostParams:
    """Hardware and schedule coefficients."""

    peak_flops: float = 275e12
    base_mxu_efficiency: float = 0.55
    link_bandwidth: float = 50e9
    hbm_capacity: float = 32 * 2**30        # Table 4; Section 7.10's limit
    bytes_per_param_state: float = 10.0     # bf16 weights+grads+Adam moments
    activation_memory_factor: float = 4.0   # stored activations (remat'd)
    bytes_per_element: int = 2
    collectives_per_layer: float = 4.0      # QKV/proj/FFN-up/FFN-down
    collective_step_latency: float = 8e-6   # per ring hop per layer batch
    dp_overlap: float = 0.75                # grad all-reduce hidden fraction
    # Resharding-cost multiplier per (activation, weight) sharding mode:
    # 2D activations force reshard collectives around every matmul pair
    # (GSPMD figure 7); 1D weights all-reduce full activations.
    resharding_factor: dict | None = None

    def reshard(self, act: str, weight: str) -> float:
        """Communication multiplier for a sharding mode."""
        table = self.resharding_factor or {
            ("1D", "1D"): 1.0,
            ("1D", "2D"): 0.55,
            ("2D", "1D"): 1.9,
            ("2D", "2D"): 2.5,
        }
        return table[(act, weight)]


@dataclass(frozen=True)
class LLMStepCost:
    """Breakdown of one training step."""

    shape: tuple[int, int, int]
    spec: PartitionSpec
    compute_seconds: float
    tensor_comm_seconds: float
    pipeline_bubble_seconds: float
    data_comm_seconds: float
    global_batch: int

    @property
    def seconds(self) -> float:
        """Total step time."""
        return (self.compute_seconds + self.tensor_comm_seconds
                + self.pipeline_bubble_seconds + self.data_comm_seconds)

    @property
    def throughput_seqs(self) -> float:
        """Sequences per second (Table 3's metric)."""
        return self.global_batch / self.seconds

    @property
    def model_flops_utilization(self) -> float:
        """Achieved fraction of peak."""
        return self.compute_seconds / self.seconds


def _tile_efficiency(extent: float) -> float:
    """MXU utilization of a matmul dimension sharded to `extent`."""
    if extent <= 0:
        return 1e-6
    if extent >= 128:
        import math
        return extent / (math.ceil(extent / 128.0) * 128.0)
    return extent / 128.0


def llm_step_cost(model: TransformerConfig,
                  shape: tuple[int, int, int],
                  spec: PartitionSpec,
                  global_batch: int,
                  params: LLMCostParams | None = None) -> LLMStepCost:
    """Estimate one training step (see module docstring).

    Raises ConfigurationError when the spec cannot map onto the shape.
    """
    params = params or LLMCostParams()
    mapping = map_axes_to_torus(shape, spec)
    if mapping is None:
        raise ConfigurationError(
            f"spec {spec.label} does not map onto {shape}")
    num_chips = spec.num_chips
    tokens = global_batch * model.seq_len
    bytes_e = params.bytes_per_element

    # --- feasibility: batch granularity and HBM capacity (Section 7.10) ----
    if spec.data > global_batch:
        raise ConfigurationError(
            f"data parallelism {spec.data} exceeds batch {global_batch}")
    model_shards = spec.pipeline * spec.model1 * spec.model2
    param_bytes = model.num_params * params.bytes_per_param_state \
        / model_shards
    act_shards = spec.model1 * (spec.model2
                                if spec.sharding.activations == "2D" else 1)
    act_bytes_stored = (params.activation_memory_factor
                        * (tokens / spec.data / spec.pipeline)
                        * model.d_model * bytes_e / act_shards)
    if param_bytes + act_bytes_stored > params.hbm_capacity:
        raise ConfigurationError(
            f"{spec.label} on {shape} needs "
            f"{(param_bytes + act_bytes_stored) / 2**30:.0f} GiB > HBM")

    # --- compute -----------------------------------------------------------
    eff = (params.base_mxu_efficiency
           * _tile_efficiency(model.d_model / max(spec.model1, 1))
           * _tile_efficiency(model.d_ff / max(spec.model2, 1)))
    total_flops = 6.0 * model.num_params * tokens
    compute = total_flops / (num_chips * params.peak_flops * eff)

    # --- tensor-parallel collectives ----------------------------------------
    layers_per_stage = model.num_layers / spec.pipeline
    tokens_per_shard = tokens / spec.data
    act_bytes = tokens_per_shard * model.d_model * bytes_e
    reshard = params.reshard(spec.sharding.activations,
                             spec.sharding.weights)
    tensor_comm = 0.0
    for axis, size in (("model1", spec.model1), ("model2", spec.model2)):
        if size == 1:
            continue
        other = spec.model2 if axis == "model1" else spec.model1
        if spec.sharding.weights == "2D" and other > 1:
            volume = act_bytes / other
        else:
            volume = act_bytes
        per_collective = AxisGeometry(
            mapping.sub_shape(axis), params.link_bandwidth,
            alpha=0.0).allreduce(volume * reshard)
        steps = 2.0 * (size - 1)
        tensor_comm += layers_per_stage * params.collectives_per_layer * (
            per_collective + steps * params.collective_step_latency)

    # --- pipeline bubble ------------------------------------------------------
    if spec.pipeline > 1:
        microbatches = max(1, global_batch // spec.data)
        bubble_fraction = (spec.pipeline - 1) / (microbatches
                                                 + spec.pipeline - 1)
        bubble = (compute + tensor_comm) * bubble_fraction \
            / (1 - bubble_fraction)
    else:
        bubble = 0.0

    # --- data-parallel gradient all-reduce -------------------------------------
    if spec.data > 1:
        grad_bytes = (model.num_params
                      / (spec.model1 * spec.model2 * spec.pipeline)
                      * bytes_e)
        dp_time = AxisGeometry(mapping.sub_shape("data"),
                               params.link_bandwidth,
                               alpha=0.0).allreduce(grad_bytes)
        data_comm = dp_time * (1.0 - params.dp_overlap)
    else:
        data_comm = 0.0

    return LLMStepCost(shape=shape, spec=spec,
                       compute_seconds=compute,
                       tensor_comm_seconds=tensor_comm,
                       pipeline_bubble_seconds=bubble,
                       data_comm_seconds=data_comm,
                       global_batch=global_batch)
