"""Per-aspect two-stage attention.

Stage one scores each position against itself through a bilinear form and
softmax-normalizes the scores into gate weights that rescale the hidden
rows. Stage two couples the sequence's mean embedding with each hidden row
to weight the rescaled rows into a single aspect context vector. Each
aspect owns an independent parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tensor


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

    self_weights: Tensor  # (T,)
    pos_weights: Optional[Tensor]  # (T,)
    context: Tensor  # (H,)


class SelfAttentionResult(NamedTuple):
    logits: Tensor
    weights: Tensor
    weighted: Tensor


class PositionAttentionResult(NamedTuple):
    logits: Tensor
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
    projected = ad.matmul(hidden, params.self_attn_w)  # (T, H)
    raw = ad.reduce_sum(ad.mul(projected, hidden), axis=1)  # (T,)
    logits = ad.tanh(ad.add(raw, params.self_attn_b))
    weights = ad.masked_softmax(logits, mask)
    weighted = ad.scale_rows(hidden, weights)
    return SelfAttentionResult(logits, weights, weighted)


def position_aware_attention(
    weighted: Tensor,
    hidden: Tensor,
    mean_embedding: Tensor,
    params: AspectAttentionParams,
    mask,
) -> PositionAttentionResult:
    """Weight the rescaled rows by their relevance to the whole sequence.

    The logit for position t is tanh(e W h_t^T + b) where e is the mean of
    the unmasked embedding rows; the softmax of the logits combines the
    stage-one rows into the aspect context vector.
    """
    mask = np.asarray(mask, dtype=bool)
    query = ad.matvec(ad.transpose(params.pos_attn_w), mean_embedding)  # (H,)
    logits = ad.tanh(ad.add(ad.matvec(hidden, query), params.pos_attn_b))
    weights = ad.masked_softmax(logits, mask)
    context = ad.reduce_sum(ad.scale_rows(weighted, weights), axis=0)
    return PositionAttentionResult(logits, weights, context)


def stack_attention_matrices(
    traces: Sequence[AttentionTrace],
) -> tuple[Tensor, Optional[Tensor]]:
    """Stack per-aspect weight vectors into aspect x position matrices.

    Row k of the first matrix is aspect k's stage-one weights; the second
    matrix holds the stage-two weights, or None when that stage was
    disabled.
    """
    if not traces:
        raise ShapeError("stack_attention_matrices: no traces")
    lengths = {t.self_weights.values.shape[0] for t in traces}
    if len(lengths) != 1:
        raise ShapeError(f"stack_attention_matrices: ragged lengths {sorted(lengths)}")
    self_matrix = ad.stack_rows([t.self_weights for t in traces])
    if any(t.pos_weights is None for t in traces):
        return self_matrix, None
    return self_matrix, ad.stack_rows([t.pos_weights for t in traces])
