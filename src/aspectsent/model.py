"""Full model: embeddings, recurrence, per-aspect attention, classifier
heads, the combined training objective, and the aspect-ranking explanation.

One classifier head per aspect consumes that aspect's attention context
vector; the overall head consumes the concatenation of all aspect contexts
in declared aspect order. The objective adds, to the overall cross-entropy:
a capped sum of rated-aspect cross-entropies, orthogonality penalties on
both attention-weight matrices, and an L2 term over all trainable
parameters.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.attention import (
    AttentionTrace,
    init_attention_params,
    position_aware_attention,
    self_attention,
    stack_attention_matrices,
)
from aspectsent.autodiff import Tensor
from aspectsent.embeddings import (
    PAD_ID,
    EmbeddingTables,
    Vocabulary,
    embed_sequence,
    random_tables,
)
from aspectsent.recurrent import LstmParams, bilstm_forward, init_lstm_params, lstm_forward

CROSS_ENTROPY_EPS = 1e-12
CLASS_COUNT = 2  # binary polarity: index 0 negative, 1 positive
CHECKPOINT_FORMAT = 2  # archives without a format_version are version 1


@dataclass
class ModelConfig:
    """Architecture and objective settings.

    max_rated_aspects caps how many rated aspects contribute cross-entropy
    per example (None means all of them). A term whose weight is 0 is left
    out of the objective entirely; disable_position_attention removes the
    position-attention stage and its parameters.
    """

    aspect_names: list = field(default_factory=list)
    embedding_width: int = 300
    cell_width: int = 64
    max_length: int = 256
    bidirectional: bool = True
    max_rated_aspects: Optional[int] = None
    aspect_loss_weight: float = 0.5
    self_orth_weight: float = 0.5
    pos_orth_weight: float = 0.5
    l2_weight: float = 0.01
    disable_position_attention: bool = False

    @property
    def aspect_count(self) -> int:
        return len(self.aspect_names)

    @property
    def hidden_width(self) -> int:
        return self.cell_width * (2 if self.bidirectional else 1)

    @property
    def rated_aspect_cap(self) -> int:
        if self.max_rated_aspects is None:
            return self.aspect_count
        return self.max_rated_aspects

    def validate(self) -> None:
        if not self.aspect_names:
            raise ValueError("at least one aspect is required")
        if not 0 <= self.rated_aspect_cap <= self.aspect_count:
            raise ValueError(
                f"max_rated_aspects {self.rated_aspect_cap} outside "
                f"[0, {self.aspect_count}]"
            )
        for name in ("aspect_loss_weight", "self_orth_weight", "pos_orth_weight", "l2_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class HeadParams:
    weight: Tensor  # in_width x CLASS_COUNT
    bias: Tensor  # CLASS_COUNT

    def tensors(self):
        return [self.weight, self.bias]


@dataclass
class ModelParams:
    tables: EmbeddingTables
    lstm_fwd: LstmParams
    lstm_bwd: Optional[LstmParams]
    attention: list  # AspectAttentionParams per aspect
    aspect_heads: list  # HeadParams per aspect
    overall_head: HeadParams

    def named_tensors(self):
        """Deterministically ordered (name, tensor) pairs for every parameter."""
        seen = []
        seen.append(("word_table", self.tables.word))
        seen.append(("position_table", self.tables.position))
        for t in self.lstm_fwd.tensors():
            seen.append((t.name, t))
        if self.lstm_bwd is not None:
            for t in self.lstm_bwd.tensors():
                seen.append((t.name, t))
        for k, attn in enumerate(self.attention):
            for t in attn.tensors():
                seen.append((t.name, t))
        for k, head in enumerate(self.aspect_heads):
            seen.append((f"aspect_head.{k}.weight", head.weight))
            seen.append((f"aspect_head.{k}.bias", head.bias))
        seen.append(("overall_head.weight", self.overall_head.weight))
        seen.append(("overall_head.bias", self.overall_head.bias))
        return seen

    def tensors(self):
        return [t for _, t in self.named_tensors()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.tensors())

    def clear_padding_gradient(self) -> None:
        """The padding row is frozen; drop any gradient that reached it."""
        if self.tables.word.grad is not None:
            self.tables.word.grad[PAD_ID, :] = 0.0


def init_params(config: ModelConfig, vocab_size: int, seed: int) -> ModelParams:
    """Initialize all trainable parameters from one seed.

    Embedding tables here are random; callers wanting pretrained word
    vectors build tables via the embeddings module and pass them through
    ``replace_tables``.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    tables = random_tables(vocab_size, config.embedding_width, config.max_length, seed)
    embed_width = 2 * config.embedding_width
    lstm_fwd = init_lstm_params(embed_width, config.cell_width, rng, "lstm_fwd")
    lstm_bwd = (
        init_lstm_params(embed_width, config.cell_width, rng, "lstm_bwd")
        if config.bidirectional
        else None
    )
    hidden = config.hidden_width
    bound = 1.0 / np.sqrt(hidden)
    attention = [
        init_attention_params(
            hidden,
            embed_width,
            rng,
            f"attention.{k}",
            with_position_stage=not config.disable_position_attention,
        )
        for k in range(config.aspect_count)
    ]
    aspect_heads = [
        HeadParams(
            weight=ad.parameter(
                rng.uniform(-bound, bound, size=(hidden, CLASS_COUNT)),
                f"aspect_head.{k}.weight",
            ),
            bias=ad.parameter(np.zeros(CLASS_COUNT), f"aspect_head.{k}.bias"),
        )
        for k in range(config.aspect_count)
    ]
    overall_bound = 1.0 / np.sqrt(hidden * config.aspect_count)
    overall_head = HeadParams(
        weight=ad.parameter(
            rng.uniform(
                -overall_bound, overall_bound,
                size=(hidden * config.aspect_count, CLASS_COUNT),
            ),
            "overall_head.weight",
        ),
        bias=ad.parameter(np.zeros(CLASS_COUNT), "overall_head.bias"),
    )
    return ModelParams(tables, lstm_fwd, lstm_bwd, attention, aspect_heads, overall_head)


def replace_tables(params: ModelParams, tables: EmbeddingTables) -> ModelParams:
    tables.word.name = "word_table"
    tables.position.name = "position_table"
    return ModelParams(
        tables, params.lstm_fwd, params.lstm_bwd, params.attention,
        params.aspect_heads, params.overall_head,
    )


@dataclass
class ForwardOutput:
    aspect_probs: list  # K tensors of shape (2,)
    overall_probs: Tensor  # (2,)
    traces: list  # K AttentionTrace
    overall_context: Tensor  # (K * hidden,)


def _head_probs(head: HeadParams, vec: Tensor) -> Tensor:
    logits = ad.add(ad.matvec(ad.transpose(head.weight), vec), head.bias)
    return ad.masked_softmax(logits, np.ones(logits.values.shape[0], dtype=bool))


def forward(example, params: ModelParams, config: ModelConfig) -> ForwardOutput:
    """Run one padded, masked example through the whole network."""
    mask = np.asarray(example.mask, dtype=bool)
    embedded = embed_sequence(example.token_ids, params.tables)
    if config.bidirectional:
        hidden = bilstm_forward(embedded, params.lstm_fwd, params.lstm_bwd, mask)
    else:
        hidden = lstm_forward(embedded, params.lstm_fwd, mask)

    mean_embedding = None
    if not config.disable_position_attention:
        unmasked = np.flatnonzero(mask)
        mean_embedding = ad.reduce_mean(ad.gather_rows(embedded, unmasked), axis=0)

    traces = []
    aspect_probs = []
    for k in range(config.aspect_count):
        attn = params.attention[k]
        sa = self_attention(hidden.values, attn, mask)
        if config.disable_position_attention:
            context = ad.reduce_sum(sa.weighted, axis=0)
            trace = AttentionTrace(sa.weights, None, context)
        else:
            pa = position_aware_attention(
                sa.weighted, hidden.values, mean_embedding, attn, mask
            )
            trace = AttentionTrace(sa.weights, pa.weights, pa.context)
        traces.append(trace)
        aspect_probs.append(_head_probs(params.aspect_heads[k], trace.context))

    overall_context = ad.concat([t.context for t in traces])
    overall_probs = _head_probs(params.overall_head, overall_context)
    return ForwardOutput(aspect_probs, overall_probs, traces, overall_context)


def cross_entropy(probs: Tensor, target: int) -> Tensor:
    """Binary cross-entropy against a probability pair.

    Index 1 of the pair is the positive class. Probabilities are clamped
    away from 0 and 1 so the logs stay finite.
    """
    target = int(target)
    positive = ad.clamp(ad.pick(probs, 1), CROSS_ENTROPY_EPS, 1.0 - CROSS_ENTROPY_EPS)
    log_pos = ad.log(positive)
    log_neg = ad.log(ad.sub(Tensor(1.0), positive))
    return ad.neg(ad.add(ad.scale(log_pos, target), ad.scale(log_neg, 1 - target)))


def orthogonal_penalty(matrix: Tensor) -> Tensor:
    """Frobenius distance of the row-normalized Gram matrix from identity.

    Rows are scaled to unit length, so the penalty measures only the
    directions of the rows; it is zero exactly when all (nonzero) rows are
    mutually orthogonal. All-zero rows are already orthogonal to everything
    and are left out rather than divided by zero.
    """
    if matrix.values.ndim != 2:
        raise ad.ShapeError(f"orthogonal_penalty: expected a matrix, got {matrix.values.shape}")
    nonzero = np.flatnonzero(np.any(matrix.values != 0.0, axis=1))
    if nonzero.size <= 1:
        return Tensor(0.0)
    if nonzero.size < matrix.values.shape[0]:
        matrix = ad.gather_rows(matrix, nonzero)
    row_norms = ad.sqrt(ad.reduce_sum(ad.mul(matrix, matrix), axis=1))
    normalized = ad.scale_rows(matrix, ad.div(Tensor(1.0), row_norms))
    gram = ad.matmul(normalized, ad.transpose(normalized))
    diff = ad.sub(gram, Tensor(np.eye(nonzero.size)))
    return ad.sqrt(ad.reduce_sum(ad.mul(diff, diff)))


@dataclass
class LossBreakdown:
    """Float values of each objective term actually included in a loss.

    ``aspect_terms`` lists (aspect index, cross-entropy) for the rated
    aspects that made it under the cap, in aspect order. Terms that were
    weightless or structurally absent are None. ``compose``
    re-folds the terms exactly as the tensor path did, so recombining a
    breakdown reproduces the logged total bit-for-bit.
    """

    overall: float
    aspect_terms: list
    self_orth: Optional[float]
    pos_orth: Optional[float]
    l2: Optional[float]
    total: float

    @staticmethod
    def compose(
        overall: float,
        aspect_terms,
        self_orth: Optional[float],
        pos_orth: Optional[float],
        l2: Optional[float],
        config: ModelConfig,
    ) -> float:
        total = overall
        if aspect_terms:
            aspect_sum = aspect_terms[0][1]
            for _, value in aspect_terms[1:]:
                aspect_sum = aspect_sum + value
            total = total + config.aspect_loss_weight * aspect_sum
        if self_orth is not None:
            total = total + config.self_orth_weight * self_orth
        if pos_orth is not None:
            total = total + config.pos_orth_weight * pos_orth
        if l2 is not None:
            total = total + config.l2_weight * l2
        return total


def combined_loss(
    output: ForwardOutput, example, params: ModelParams, config: ModelConfig
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the full objective for one example.

    Unrated aspects never contribute cross-entropy (their traces still feed
    the orthogonality terms); of the rated ones, only the first
    ``max_rated_aspects`` in aspect order do.
    """
    total = cross_entropy(output.overall_probs, example.overall_label)
    overall_value = total.item()

    rated = [k for k, label in enumerate(example.aspect_labels) if label is not None]
    included = rated[: config.rated_aspect_cap]
    aspect_terms = []
    if included and config.aspect_loss_weight > 0:
        aspect_sum = None
        for k in included:
            term = cross_entropy(output.aspect_probs[k], example.aspect_labels[k])
            aspect_terms.append((k, term.item()))
            aspect_sum = term if aspect_sum is None else ad.add(aspect_sum, term)
        total = ad.add(total, ad.scale(aspect_sum, config.aspect_loss_weight))

    self_matrix, pos_matrix = stack_attention_matrices(output.traces)
    self_orth_value = None
    if config.self_orth_weight > 0:
        self_orth = orthogonal_penalty(self_matrix)
        self_orth_value = self_orth.item()
        total = ad.add(total, ad.scale(self_orth, config.self_orth_weight))

    pos_orth_value = None
    if pos_matrix is not None and config.pos_orth_weight > 0:
        pos_orth = orthogonal_penalty(pos_matrix)
        pos_orth_value = pos_orth.item()
        total = ad.add(total, ad.scale(pos_orth, config.pos_orth_weight))

    l2_value = None
    if config.l2_weight > 0:
        l2 = None
        for tensor in params.tensors():
            term = ad.reduce_sum(ad.mul(tensor, tensor))
            l2 = term if l2 is None else ad.add(l2, term)
        l2_value = l2.item()
        total = ad.add(total, ad.scale(l2, config.l2_weight))

    breakdown = LossBreakdown(
        overall=overall_value,
        aspect_terms=aspect_terms,
        self_orth=self_orth_value,
        pos_orth=pos_orth_value,
        l2=l2_value,
        total=total.item(),
    )
    return total, breakdown


RANKING_MODES = ("literal", "magnitude")


def aspect_rank(traces: Sequence[AttentionTrace], mode: str = "magnitude"):
    """Rank aspects by attention mass, descending; ties break on index.

    Literal mode sums both weight vectors, which is constant (2 per aspect,
    or 1 without the position stage) whenever nothing is masked, because
    each weight vector is softmax-normalized. Magnitude mode multiplies
    that sum by the context vector's Euclidean norm, which restores a
    meaningful ordering.
    """
    if mode not in RANKING_MODES:
        raise ValueError(f"unknown ranking mode {mode!r}")
    scores = []
    for k, trace in enumerate(traces):
        mass = float(np.sum(trace.self_weights.values))
        if trace.pos_weights is not None:
            mass += float(np.sum(trace.pos_weights.values))
        if mode == "magnitude":
            mass *= float(np.linalg.norm(trace.context.values))
        scores.append((k, mass))
    return sorted(scores, key=lambda pair: (-pair[1], pair[0]))


# ---------------------------------------------------------------------------
# checkpointing


class CheckpointFormatError(ValueError):
    """A checkpoint file has another format version or does not match its config."""


def save_checkpoint(path, config: ModelConfig, vocab: Vocabulary, params: ModelParams) -> None:
    """Write config, vocabulary, and every parameter tensor to one archive.

    The archive is written to a temporary file beside ``path`` and then
    renamed over it, so a failed save leaves any earlier checkpoint intact.
    """
    meta = {
        "format_version": CHECKPOINT_FORMAT,
        "config": asdict(config),
        "vocabulary": vocab.id_to_token,
    }
    arrays = {"param/" + name: tensor.values for name, tensor in params.named_tensors()}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                     **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ModelConfig, Vocabulary, ModelParams]:
    """Rebuild config, vocabulary, and parameters; values round-trip exactly.

    Raises CheckpointFormatError, naming the file, when the format version
    differs or the config keys or parameter names and shapes do not match.
    """
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        arrays = {
            key[len("param/"):]: archive[key]
            for key in archive.files
            if key.startswith("param/")
        }

    def fail(message):
        raise CheckpointFormatError(f"checkpoint {path}: {message}")

    version = meta.get("format_version")
    if version != CHECKPOINT_FORMAT:
        fail(f"format version {version} is not {CHECKPOINT_FORMAT}; retrain the model")
    unknown = set(meta["config"]) - {f.name for f in fields(ModelConfig)}
    if unknown:
        fail(f"unknown config keys {sorted(unknown)}")
    config = ModelConfig(**meta["config"])
    tokens = meta["vocabulary"]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, list(tokens))
    params = init_params(config, len(vocab), seed=0)
    for name, tensor in params.named_tensors():
        if name not in arrays:
            fail(f"parameter {name} is missing")
        loaded = arrays.pop(name)
        if loaded.shape != tensor.values.shape:
            fail(
                f"parameter {name} has shape {loaded.shape}, expected "
                f"{tensor.values.shape}"
            )
        tensor.values[...] = loaded
    if arrays:
        fail(f"unexpected parameters {sorted(arrays)}")
    return config, vocab, params
