"""The training-step graph of the paper's transformer workloads.

:func:`transformer_step_graph` returns ``(graph, annotations)``: the
logical op graph of one training step (forward, backward, optimizer
update) plus the GSPMD sharding annotations for its parameters and
inputs.  It builds a decoder block stack with Megatron-style tensor
parallelism over ``model1`` and data parallelism over ``data``.
Passing the pair through :func:`repro.graph.spmd.partition`
materialises the communication that implies: the two forward
all-reduces per layer, the backward ones, and the data-parallel
gradient all-reduce in front of every optimizer update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import (ElementwiseOp, EmbeddingLookupOp, FusionOp,
                             InputOp, MatMulOp, ParameterOp)
from repro.graph.tensor import ShardingSpec, TensorSpec
from repro.models.transformer import TransformerConfig

Annotations = dict[str, ShardingSpec]


def _spec(*axes: str | None) -> ShardingSpec:
    return ShardingSpec(axes=tuple(axes))


@dataclass(frozen=True)
class TransformerShardingPlan:
    """Axis names the transformer builder shards over.

    `data` shards the token/batch dimension; `model` column/row-shards
    the weights Megatron-style.  Either may be None to disable that
    form of parallelism.
    """

    data: str | None = "data"
    model: str | None = "model1"


def transformer_step_graph(config: TransformerConfig, *, global_batch: int,
                           plan: TransformerShardingPlan | None = None,
                           num_layers: int | None = None,
                           include_head: bool = True
                           ) -> tuple[ComputationGraph, Annotations]:
    """One training step (fwd + bwd + optimizer) of a decoder stack.

    Args:
        config: model shape (layers, d_model, heads, d_ff, seq_len).
        global_batch: sequences per step across the whole slice.
        plan: which mesh axes shard what; defaults to data+model1.
        num_layers: override layer count (smaller graphs for tests).
        include_head: include embedding lookup, vocab projection, loss.

    Returns:
        (graph, annotations) ready for :func:`repro.graph.spmd.partition`.
    """
    plan = plan or TransformerShardingPlan()
    layers = num_layers if num_layers is not None else config.num_layers
    if layers < 1:
        raise ConfigurationError("need at least one transformer layer")
    tokens = global_batch * config.seq_len
    hidden = config.d_model
    ffn = config.d_ff
    heads = config.num_heads
    head_dim = hidden // heads
    seq = config.seq_len

    g = ComputationGraph(name=f"{config.name}-step")
    ann: Annotations = {}
    dp, mp = plan.data, plan.model

    acts = TensorSpec((tokens, hidden))
    scores_spec = TensorSpec((tokens, heads * seq))

    def elementwise(name: str, inputs: tuple[str, ...],
                    spec: TensorSpec, fpe: float) -> str:
        return g.add(ElementwiseOp(name=name, inputs=inputs, output=spec,
                                   flops_per_element=fpe))

    def parameter(name: str, shape: tuple[int, int],
                  sharding: ShardingSpec) -> str:
        g.add(ParameterOp(name=name, output=TensorSpec(shape)))
        ann[name] = sharding
        return name

    def transpose(name: str, src: str, shape: tuple[int, int],
                  sharding: ShardingSpec) -> str:
        g.add(FusionOp(name=name, inputs=(src,), output=TensorSpec(shape)))
        ann[name] = sharding
        return name

    def matmul(name: str, lhs: str, rhs: str, *, m: int, k: int, n: int,
               out: TensorSpec, batch: int = 1,
               batch_local: bool = False) -> str:
        return g.add(MatMulOp(name=name, inputs=(lhs, rhs), output=out,
                              m=m, k=k, n=n, batch=batch,
                              batch_local=batch_local))

    # -- embedding / step input --------------------------------------------------
    if include_head:
        g.add(InputOp(name="ids", output=TensorSpec((tokens,), dtype_bytes=4)))
        ann["ids"] = _spec(dp)
        # Vocab-sharded over the model axis (Megatron): the input lookup
        # pays an all-to-all and the head computes vocab-parallel logits.
        w_emb = parameter("w_emb", (config.vocab_size, hidden),
                          _spec(mp, None))
        x = g.add(EmbeddingLookupOp(
            name="tok_embed", inputs=(w_emb, "ids"), output=acts,
            vocab=config.vocab_size, width=hidden, lookups=tokens))
        ann["tok_embed"] = _spec(dp, None)
    else:
        x = g.add(InputOp(name="x0", output=acts))
        ann["x0"] = _spec(dp, None)

    # -- forward layers ---------------------------------------------------------------
    saved: list[dict[str, str]] = []  # per-layer activations for backward
    for i in range(layers):
        p = f"l{i}"
        w_qkv = parameter(f"{p}.w_qkv", (hidden, 3 * hidden), _spec(None, mp))
        w_out = parameter(f"{p}.w_out", (hidden, hidden), _spec(mp, None))
        w_up = parameter(f"{p}.w_up", (hidden, ffn), _spec(None, mp))
        w_down = parameter(f"{p}.w_down", (ffn, hidden), _spec(mp, None))

        ln1 = elementwise(f"{p}.ln1", (x,), acts, 6.0)
        qkv = matmul(f"{p}.qkv", ln1, w_qkv, m=tokens, k=hidden,
                     n=3 * hidden, out=TensorSpec((tokens, 3 * hidden)))
        scores = matmul(f"{p}.scores", qkv, qkv, batch=global_batch * heads,
                        m=seq, k=head_dim, n=seq, out=scores_spec,
                        batch_local=True)
        softmax = elementwise(f"{p}.softmax", (scores,), scores_spec, 5.0)
        ctx = matmul(f"{p}.ctx", softmax, qkv, batch=global_batch * heads,
                     m=seq, k=seq, n=head_dim, out=acts, batch_local=True)
        ann[f"{p}.ctx"] = _spec(dp, mp)
        attn_out = matmul(f"{p}.attn_out", ctx, w_out, m=tokens, k=hidden,
                          n=hidden, out=acts)
        resid1 = elementwise(f"{p}.resid1", (attn_out, x), acts, 1.0)

        ln2 = elementwise(f"{p}.ln2", (resid1,), acts, 6.0)
        up = matmul(f"{p}.up", ln2, w_up, m=tokens, k=hidden, n=ffn,
                    out=TensorSpec((tokens, ffn)))
        gelu = elementwise(f"{p}.gelu", (up,), TensorSpec((tokens, ffn)), 8.0)
        down = matmul(f"{p}.down", gelu, w_down, m=tokens, k=ffn, n=hidden,
                      out=acts)
        resid2 = elementwise(f"{p}.resid2", (down, resid1), acts, 1.0)

        saved.append({
            "x": x, "ln1": ln1, "qkv": qkv, "softmax": softmax, "ctx": ctx,
            "ln2": ln2, "gelu": gelu, "w_qkv": w_qkv, "w_out": w_out,
            "w_up": w_up, "w_down": w_down,
        })
        x = resid2

    # -- head + loss --------------------------------------------------------------------
    if include_head:
        w_embT = transpose("w_emb.T", "w_emb",
                           (hidden, config.vocab_size), _spec(None, mp))
        logits_spec = TensorSpec((tokens, config.vocab_size))
        logits = matmul("logits", x, w_embT, m=tokens, k=hidden,
                        n=config.vocab_size, out=logits_spec)
        dlogits = elementwise("dloss", (logits,), logits_spec, 6.0)
        dx = matmul("dlogits.dx", dlogits, "w_emb", m=tokens,
                    k=config.vocab_size, n=hidden, out=acts)
        xT = transpose("head_in.T", x, (hidden, tokens), _spec(None, dp))
        demb = matmul("w_emb.grad", xT, dlogits, m=hidden, k=tokens,
                      n=config.vocab_size,
                      out=TensorSpec((hidden, config.vocab_size)))
        dembT = transpose("w_emb.grad.T", demb,
                          (config.vocab_size, hidden), _spec(mp, None))
        elementwise("w_emb.update", ("w_emb", dembT),
                    TensorSpec((config.vocab_size, hidden)), 4.0)
    else:
        dx = elementwise("dloss", (x,), acts, 2.0)

    # -- backward layers -------------------------------------------------------------------
    for i in reversed(range(layers)):
        p = f"l{i}"
        s = saved[i]
        ffn_spec = TensorSpec((tokens, ffn))

        # FFN backward: down -> gelu -> up.
        w_downT = transpose(f"{p}.w_down.T", s["w_down"], (hidden, ffn),
                            _spec(None, mp))
        dgelu = matmul(f"{p}.dgelu", dx, w_downT, m=tokens, k=hidden, n=ffn,
                       out=ffn_spec)
        geluT = transpose(f"{p}.gelu.T", s["gelu"], (ffn, tokens),
                          _spec(mp, dp))
        dw_down = matmul(f"{p}.w_down.grad", geluT, dx, m=ffn, k=tokens,
                         n=hidden, out=TensorSpec((ffn, hidden)))
        dup = elementwise(f"{p}.dup", (dgelu,), ffn_spec, 8.0)
        w_upT = transpose(f"{p}.w_up.T", s["w_up"], (ffn, hidden),
                          _spec(mp, None))
        dln2 = matmul(f"{p}.dln2", dup, w_upT, m=tokens, k=ffn, n=hidden,
                      out=acts)
        ln2T = transpose(f"{p}.ln2.T", s["ln2"], (hidden, tokens),
                         _spec(None, dp))
        dw_up = matmul(f"{p}.w_up.grad", ln2T, dup, m=hidden, k=tokens,
                       n=ffn, out=TensorSpec((hidden, ffn)))
        dresid1 = elementwise(f"{p}.dresid1", (dln2, dx), acts, 2.0)

        # Attention backward.
        w_outT = transpose(f"{p}.w_out.T", s["w_out"], (hidden, hidden),
                           _spec(None, mp))
        dctx = matmul(f"{p}.dctx", dresid1, w_outT, m=tokens, k=hidden,
                      n=hidden, out=acts)
        ann[f"{p}.dctx"] = _spec(dp, mp)
        ctxT = transpose(f"{p}.ctx.T", s["ctx"], (hidden, tokens),
                         _spec(mp, dp))
        dw_out = matmul(f"{p}.w_out.grad", ctxT, dresid1, m=hidden,
                        k=tokens, n=hidden, out=TensorSpec((hidden, hidden)))
        dsoftmax = matmul(f"{p}.dscores", dctx, s["qkv"],
                          batch=global_batch * heads, m=seq, k=head_dim,
                          n=seq, out=scores_spec, batch_local=True)
        dattn = elementwise(f"{p}.dsoftmax", (dsoftmax,), scores_spec, 5.0)
        dqkv = matmul(f"{p}.dqkv", dattn, s["qkv"],
                      batch=global_batch * heads, m=seq, k=seq, n=head_dim,
                      out=TensorSpec((tokens, 3 * hidden)), batch_local=True)
        ann[f"{p}.dqkv"] = _spec(dp, mp)
        w_qkvT = transpose(f"{p}.w_qkv.T", s["w_qkv"], (3 * hidden, hidden),
                           _spec(mp, None))
        dln1 = matmul(f"{p}.dln1", dqkv, w_qkvT, m=tokens, k=3 * hidden,
                      n=hidden, out=acts)
        ln1T = transpose(f"{p}.ln1.T", s["ln1"], (hidden, tokens),
                         _spec(None, dp))
        dw_qkv = matmul(f"{p}.w_qkv.grad", ln1T, dqkv, m=hidden, k=tokens,
                        n=3 * hidden, out=TensorSpec((hidden, 3 * hidden)))
        dx = elementwise(f"{p}.dx", (dln1, dresid1), acts, 2.0)

        # Optimizer updates (Adam: m, v, and the write).
        for wname, grad in ((s["w_qkv"], dw_qkv), (s["w_out"], dw_out),
                            (s["w_up"], dw_up), (s["w_down"], dw_down)):
            elementwise(f"{wname}.update", (wname, grad),
                        g.op(wname).output, 4.0)

    return g, ann
