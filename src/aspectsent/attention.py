"""Per-aspect two-stage attention.

Stage one scores each position against itself through a bilinear form and
turns the scores into gate weights that rescale the hidden rows. Stage two
couples the sequence's mean embedding with each hidden row to weight the
rescaled rows into a single aspect context vector. Each stage records its
weights, scores included, as one op with a hand-written backward, through
the numpy helper ``attention_weights``: softmax(tanh(score + b)) over the
unmasked positions. Each aspect owns an independent parameter set. Every
function takes one sequence, (T, H) rows with a (T,) mask, or a padded
batch of them, (B, T, H) with a (B, T) mask, and then returns every result
with the batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import EmptyAttentionError, ShapeError, Tensor


@dataclass
class AspectAttentionParams:
    """Attention parameters for a single aspect.

    self_attn_w is hidden x hidden, pos_attn_w embedding-width x hidden;
    both biases are scalars. The position-attention pair is absent when
    that stage is disabled.
    """

    self_attn_w: Tensor
    self_attn_b: Tensor
    pos_attn_w: Optional[Tensor]
    pos_attn_b: Optional[Tensor]

    def tensors(self):
        out = [self.self_attn_w, self.self_attn_b]
        if self.pos_attn_w is not None:
            out += [self.pos_attn_w, self.pos_attn_b]
        return out


@dataclass
class AttentionTrace:
    """What one aspect's encoder produced for one sequence.

    Kept around for the loss's orthogonality terms and for explanation:
    both weight vectors sum to one over unmasked positions and are zero at
    masked ones. pos_weights is None when the position stage is disabled.
    """

    self_weights: Tensor  # (T,), or (B, T) for a batch
    pos_weights: Optional[Tensor]  # (T,), or (B, T)
    context: Tensor  # (H,), or (B, H)


class SelfAttentionResult(NamedTuple):
    weights: Tensor
    weighted: Tensor


class PositionAttentionResult(NamedTuple):
    weights: Tensor
    context: Tensor


def init_attention_params(
    hidden_width: int,
    embed_width: int,
    rng: np.random.Generator,
    prefix: str,
    with_position_stage: bool = True,
) -> AspectAttentionParams:
    bound = 1.0 / np.sqrt(hidden_width)
    return AspectAttentionParams(
        self_attn_w=ad.parameter(
            rng.uniform(-bound, bound, size=(hidden_width, hidden_width)),
            f"{prefix}.self_attn_w",
        ),
        self_attn_b=ad.parameter(0.0, f"{prefix}.self_attn_b"),
        pos_attn_w=(
            ad.parameter(
                rng.uniform(-bound, bound, size=(embed_width, hidden_width)),
                f"{prefix}.pos_attn_w",
            )
            if with_position_stage
            else None
        ),
        pos_attn_b=(
            ad.parameter(0.0, f"{prefix}.pos_attn_b") if with_position_stage else None
        ),
    )


def self_attention(
    hidden: Tensor, params: AspectAttentionParams, mask
) -> SelfAttentionResult:
    """Score every position against itself and rescale the hidden rows.

    The score for position t is h_t W h_t^T, a single scalar per position;
    the weights, softmax(tanh(score + b)), are one recorded op over the
    hidden rows and both parameters, and they scale each row, preserving the
    sequence so the next stage can reweight it. Summing the output rows
    recovers the plain attention-pooled vector.
    """
    h, w = hidden.values, params.self_attn_w.values
    rows = h.reshape(-1, h.shape[-1])
    projected = (rows @ w).reshape(h.shape)  # (..., T, H): W over every row at once
    out, weights_grad = attention_weights(np.sum(projected * h, axis=-1),
                                          params.self_attn_b.values, mask)

    def grad_fn(g):
        gs, gb = weights_grad(g)
        # the two terms of the rows' gradient reach their buffer one after the
        # other, as two composed ops would add them: one sum of both rounds differently
        hidden.accumulate_grad(gs[..., None] * projected)
        gp_rows = (gs[..., None] * h).reshape(rows.shape)
        return (gp_rows @ w.T).reshape(h.shape), rows.T @ gp_rows, gb

    weights = ad.record((hidden, params.self_attn_w, params.self_attn_b), out, grad_fn)
    return SelfAttentionResult(weights, ad.scale_rows(hidden, weights))


def position_aware_attention(
    weighted: Tensor,
    hidden: Tensor,
    mean_embedding: Tensor,
    params: AspectAttentionParams,
    mask,
) -> PositionAttentionResult:
    """Weight the rescaled rows by their relevance to the whole sequence.

    The score for position t is e W h_t^T where e is the mean of the
    unmasked embedding rows: the query e W is one vector-matrix product,
    read from W in place. The weights, softmax(tanh(score + b)), are one
    recorded op over the hidden rows, e and both parameters; times the
    stage-one rows they give the aspect context vector.
    """
    h, e, w = hidden.values, mean_embedding.values, params.pos_attn_w.values
    query = e @ w  # (..., H)
    out, weights_grad = attention_weights(np.matmul(h, query[..., None])[..., 0],
                                          params.pos_attn_b.values, mask)

    def grad_fn(g):
        gs, gb = weights_grad(g)
        gq = np.matmul(gs[..., None, :], h)[..., 0, :]  # the query's gradient
        return (gs[..., None] * query[..., None, :], gq @ w.T,
                e.reshape(-1, w.shape[0]).T @ gq.reshape(-1, w.shape[1]), gb)

    inputs = (hidden, mean_embedding, params.pos_attn_w, params.pos_attn_b)
    weights = ad.record(inputs, out, grad_fn)
    return PositionAttentionResult(weights, ad.matmul(weights, weighted))


def attention_weights(scores: np.ndarray, bias, mask):
    """softmax(tanh(scores + b)) over the unmasked entries of the last axis,
    row by row: masked positions get exactly zero, and each row's unmasked
    weights are positive and sum to one. ``mask`` has the scores' shape, and
    ``bias`` is a scalar. Each row's logits are shifted by their unmasked
    maximum first, which leaves the result unchanged. Returns the weights and
    a function from their gradient to the scores' gradient and the bias's.
    """
    m = np.asarray(mask, dtype=bool)
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim == 0 or m.shape != x.shape:
        raise ShapeError(f"attention_weights: scores {x.shape} vs mask {m.shape}")
    y = np.tanh(x + bias)
    top = y.max(axis=-1, keepdims=True, where=m, initial=-np.inf)
    e = np.exp(y - top, out=np.zeros(x.shape), where=m)
    total = e.sum(axis=-1, keepdims=True)
    if not total.all():  # an unmasked row's sum is at least exp(0) = 1
        raise EmptyAttentionError("attention_weights: mask excludes every position of a row")
    out = e / total

    def grad_fn(g):
        # the softmax's backward (each row's g·out as one (1, T) @ (T, 1) product), then tanh's
        g = out * (g - np.matmul(g[..., None, :], out[..., :, None])[..., 0]) * (1.0 - y * y)
        return g, np.asarray(np.sum(g, axis=tuple(range(g.ndim))))

    return out, grad_fn
