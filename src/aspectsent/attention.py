"""Per-aspect two-stage attention.

Stage one scores each position against itself through a bilinear form and
turns the scores into gate weights that rescale the hidden rows. Stage two
couples the sequence's mean embedding with each hidden row to weight the
rescaled rows into a single aspect context vector. Both stages end in one
recorded op, ``attention_weights``: softmax(tanh(score + b)) over the
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
    ``attention_weights`` turns the scores into weights that scale each
    row, preserving the sequence so the next stage can reweight it. Summing
    the output rows recovers the plain attention-pooled vector.
    """
    projected = ad.matmul(hidden, params.self_attn_w)  # (..., T, H)
    raw = ad.reduce_sum(ad.mul(projected, hidden), axis=-1)  # (..., T)
    weights = attention_weights(raw, params.self_attn_b, mask)
    weighted = ad.scale_rows(hidden, weights)
    return SelfAttentionResult(weights, weighted)


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
    read from W in place. ``attention_weights`` turns the scores into a row
    of weights, which times the stage-one rows is the aspect context vector.
    """
    query = ad.matmul(mean_embedding, params.pos_attn_w)  # (..., H)
    scores = ad.matmul(hidden, query, per_row=hidden.values.ndim == 3)  # (..., T)
    weights = attention_weights(scores, params.pos_attn_b, mask)
    context = ad.matmul(weights, weighted)  # (..., H)
    return PositionAttentionResult(weights, context)


def attention_weights(scores: Tensor, bias: Tensor, mask) -> Tensor:
    """softmax(tanh(scores + b)) over the unmasked entries of the last axis,
    row by row, as one recorded op: masked positions get exactly zero, and
    each row's unmasked weights are positive and sum to one. ``mask`` has the
    scores' shape, and ``bias`` is a scalar. Each row's logits are shifted by
    their unmasked maximum first, which leaves the result unchanged.
    """
    m = np.asarray(mask, dtype=bool)
    x = scores.values
    if x.ndim == 0 or m.shape != x.shape:
        raise ShapeError(f"attention_weights: scores {x.shape} vs mask {m.shape}")
    y = np.tanh(x + bias.values)
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

    return ad.record((scores, bias), out, grad_fn)
