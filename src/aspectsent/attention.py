"""Per-aspect two-stage attention.

Stage one scores each position against itself through a bilinear form and
softmax-normalizes the scores into gate weights that rescale the hidden
rows. Stage two couples the sequence's mean embedding with each hidden row
to weight the rescaled rows into a single aspect context vector. Each
aspect owns an independent parameter set. Every function takes one
sequence, (T, H) rows with a (T,) mask, or a padded batch of them, (B, T, H)
with a (B, T) mask, and then returns every result with the batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import Tensor


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

    The logit for position t is tanh(h_t W h_t^T + b), a single scalar per
    position; the softmax of the logits scales each row, preserving the
    sequence so the next stage can reweight it. Summing the output rows
    recovers the plain attention-pooled vector.
    """
    mask = np.asarray(mask, dtype=bool)
    projected = ad.matmul(hidden, params.self_attn_w)  # (..., T, H)
    raw = ad.reduce_sum(ad.mul(projected, hidden), axis=-1)  # (..., T)
    logits = ad.tanh(ad.add(raw, params.self_attn_b))
    weights = ad.masked_softmax(logits, mask)
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

    The logit for position t is tanh(e W h_t^T + b) where e is the mean of
    the unmasked embedding rows: the query e W is one vector-matrix
    product, read from W in place. The softmax of the logits, as a row of
    weights, times the stage-one rows is the aspect context vector.
    """
    mask = np.asarray(mask, dtype=bool)
    query = ad.matmul(mean_embedding, params.pos_attn_w)  # (..., H)
    scores = ad.matmul(hidden, query, per_row=hidden.values.ndim == 3)  # (..., T)
    logits = ad.tanh(ad.add(scores, params.pos_attn_b))
    weights = ad.masked_softmax(logits, mask)
    context = ad.matmul(weights, weighted)  # (..., H)
    return PositionAttentionResult(weights, context)

