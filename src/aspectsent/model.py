"""Full model: embeddings, recurrence, per-aspect attention, classifier
heads, the combined training objective, and the aspect-ranking explanation.

One linear head per aspect maps its attention context to two logits; the
overall head maps all contexts, concatenated in aspect order; the softmax
lives in ``cross_entropy``. The objective adds, to the overall cross-entropy:
the weighted sum of rated-aspect cross-entropies, weighted orthogonality
penalties on both attention-weight matrices, and a weighted L2 term over
every trainable parameter but the two embedding tables (``L2_EXEMPT``).
Each cross-entropy and each penalty records itself as one tape op with a
hand-written backward pass, so ``combined_loss`` adds only their weighting
and summing to the tape. The L2 term is not on the tape:
``training.adam_step`` adds its gradient to each parameter's in its scope,
and ``combined_loss`` adds its value, from ``l2_penalty``, to the
objective's value it reports. That value is the only one training logs.

``forward`` and ``combined_loss`` take one example, or a batch record made
by ``data.collate``; a batch runs every layer once, with a leading batch
axis on every value, and its loss is the mean of its examples' objectives.
"""

from __future__ import annotations

import json
import math
import os
import typing
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.attention import (
    AttentionTrace,
    init_attention_params,
    position_aware_attention,
    self_attention,
)
from aspectsent.autodiff import Tensor
from aspectsent.data import PreprocessRules
from aspectsent.embeddings import (
    PAD_TOKEN,
    UNK_TOKEN,
    EmbeddingTables,
    Vocabulary,
    embed_sequence,
    random_tables,
)
from aspectsent.recurrent import LstmParams, bilstm_forward, init_lstm_params
from aspectsent.textfile import InputError

CLASS_COUNT = 2  # binary polarity: index 0 negative, 1 positive
CHECKPOINT_FORMAT = 5  # archives without a format_version are version 1
# Outside the L2 term: the tables' gradients touch only the rows a batch
# looks up, and Adam updates those rows alone (``training.adam_step``).
L2_EXEMPT = frozenset({"word_table", "position_table"})


def check_range(settings, names, ok, requirement: str) -> None:
    """Raise ValueError naming the first of ``names`` whose value fails ``ok``."""
    for name in names:
        value = getattr(settings, name)
        if not ok(value):
            raise ValueError(f"{name} must be {requirement}, got {value!r}")


def read_settings(cls, entries: dict, convert, lines=None, **given):
    """Build the settings dataclass ``cls`` from outside key-value pairs.

    Every key must name a field of ``cls``; ``given`` sets fields the
    caller has already built. ``convert(value, field_type)`` turns each
    outside value into its field's type, raising ValueError when it cannot,
    and a float must be finite; the dataclass then checks the ranges. Every
    error is a ValueError that names the key, and the value when there is
    one. ``lines`` maps each key to the line of the file it was read from,
    and a value that does not convert names that line too.
    """
    hints = typing.get_type_hints(cls)
    unknown = entries.keys() - hints.keys()
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    values = dict(given)
    for key, value in entries.items():
        try:
            values[key] = convert(value, hints[key])
            if hints[key] is float and not math.isfinite(values[key]):
                raise ValueError("not finite")
        except ValueError:
            at = f"line {lines[key]}: " if lines else ""
            raise ValueError(f"{at}bad value for {key!r}: {value!r}") from None
    return cls(**values)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and objective settings, checked when made.

    The encoder is a BiLSTM of cell_width units per direction, so each
    hidden row is 2 * cell_width wide. Every rated aspect contributes
    cross-entropy. A term whose weight is 0 is left out of the objective
    entirely; disable_position_attention removes the position-attention
    stage and its parameters. ``l2_weight`` scales the sum of squares of
    every parameter but the embedding tables (``L2_EXEMPT``);
    ``training.adam_step`` applies it by adding 2 * l2_weight * p to each
    such parameter p's gradient: the coupled L2 of ``Adam(weight_decay=...)``,
    not AdamW's decoupled decay.
    """

    aspect_names: list = field(default_factory=list)
    embedding_width: int = 300
    cell_width: int = 64
    max_length: int = 256
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
        return 2 * self.cell_width

    def __post_init__(self) -> None:
        check_range(
            self, ("aspect_names",), lambda v: v and len(set(v)) == len(v), "non-empty and distinct"
        )
        check_range(
            self, ("embedding_width", "cell_width", "max_length"), lambda v: v >= 1, "at least 1"
        )
        check_range(
            self, ("aspect_loss_weight", "self_orth_weight", "pos_orth_weight", "l2_weight"),
            lambda v: v >= 0, "non-negative",
        )


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
    lstm_bwd: LstmParams
    attention: list  # AspectAttentionParams per aspect
    aspect_heads: list  # HeadParams per aspect
    overall_head: HeadParams

    def named_tensors(self):
        """Deterministically ordered (name, tensor) pairs for every parameter."""
        seen = [("word_table", self.tables.word), ("position_table", self.tables.position)]
        lstms = [self.lstm_fwd, self.lstm_bwd]
        for part in lstms + self.attention + self.aspect_heads + [self.overall_head]:
            seen.extend((t.name, t) for t in part.tensors())
        return seen

    def tensors(self):
        return [t for _, t in self.named_tensors()]

    def parameter_count(self) -> int:
        return sum(t.values.size for t in self.tensors())


def _init_head(in_width: int, rng, prefix: str) -> HeadParams:
    bound = 1.0 / np.sqrt(in_width)
    return HeadParams(
        weight=ad.parameter(
            rng.uniform(-bound, bound, size=(in_width, CLASS_COUNT)), f"{prefix}.weight"
        ),
        bias=ad.parameter(np.zeros(CLASS_COUNT), f"{prefix}.bias"),
    )


def _build_params(config: ModelConfig, vocab_size: int, table_rng, rng) -> ModelParams:
    """Every parameter, with its name and shape: the one place that states them.

    The embedding tables are drawn from ``table_rng``; the BiLSTM, each
    aspect's attention and the heads from ``rng``, in that order.
    """
    tables = random_tables(vocab_size, config.embedding_width, config.max_length, table_rng)
    embed_width = 2 * config.embedding_width
    lstm_fwd = init_lstm_params(embed_width, config.cell_width, rng, "lstm_fwd")
    lstm_bwd = init_lstm_params(embed_width, config.cell_width, rng, "lstm_bwd")
    hidden = config.hidden_width
    aspects = range(config.aspect_count)
    attention = [
        init_attention_params(
            hidden,
            embed_width,
            rng,
            f"attention.{k}",
            with_position_stage=not config.disable_position_attention,
        )
        for k in aspects
    ]
    aspect_heads = [_init_head(hidden, rng, f"aspect_head.{k}") for k in aspects]
    overall_head = _init_head(hidden * config.aspect_count, rng, "overall_head")
    return ModelParams(tables, lstm_fwd, lstm_bwd, attention, aspect_heads, overall_head)


def init_params(config: ModelConfig, vocab_size: int, seed: int) -> ModelParams:
    """Initialize all trainable parameters from one seed.

    The embedding tables and the other parameters each draw from their own
    generator seeded with ``seed``. The word table is random; the rows
    ``embeddings.load_pretrained`` reads are written over it.
    """
    return _build_params(
        config, vocab_size, np.random.default_rng(seed), np.random.default_rng(seed)
    )


@dataclass
class ForwardOutput:
    """Each head's logits, whose argmax is its prediction, and each aspect's attention."""

    aspect_logits: list  # K tensors of shape (2,), or (B, 2) for a batch
    overall_logits: Tensor  # (2,), or (B, 2)
    traces: list  # K AttentionTrace


def _head_logits(head: HeadParams, vec: Tensor) -> Tensor:
    return ad.add(ad.matmul(vec, head.weight), head.bias)


def forward(example, params: ModelParams, config: ModelConfig) -> ForwardOutput:
    """Run one example, or a batch record, through the whole network.

    Masked-out rows are ignored: a batch's row b is what example b gives
    alone, up to rounding, and a row with no unmasked position raises
    ``EmptyAttentionError``.
    """
    mask = np.asarray(example.mask, dtype=bool)
    embedded = embed_sequence(example.token_ids, params.tables)
    mean_embedding = None
    if not config.disable_position_attention:
        # weights 1/n on the unmasked rows: their mean, read in place; recorded before the
        # BiLSTM, its (B, T, 2d) gradient, the only one of the embedded rows (the BiLSTM
        # writes the tables itself), comes once the BiLSTM's buffers are freed
        counts = np.maximum(np.count_nonzero(mask, axis=-1, keepdims=True), 1)
        mean_embedding = ad.matmul(Tensor(mask / counts), embedded)
    hidden = bilstm_forward(embedded, params.lstm_fwd, params.lstm_bwd, mask)

    traces = []
    aspect_logits = []
    for k in range(config.aspect_count):
        attn = params.attention[k]
        sa = self_attention(hidden.values, attn, mask)
        if config.disable_position_attention:
            context = ad.reduce_sum(sa.weighted, axis=-2)
            trace = AttentionTrace(sa.weights, None, context)
        else:
            pa = position_aware_attention(
                sa.weighted, hidden.values, mean_embedding, attn, mask
            )
            trace = AttentionTrace(sa.weights, pa.weights, pa.context)
        traces.append(trace)
        aspect_logits.append(_head_logits(params.aspect_heads[k], trace.context))

    contexts = ad.concat([t.context for t in traces], axis=-1)
    return ForwardOutput(aspect_logits, _head_logits(params.overall_head, contexts), traces)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Softmax cross-entropy, summed over the chosen rows, as one tape op.

    ``logits`` is a pair (2,) with an int target, or (B, 2) with (B,)
    targets, where -1 leaves a row out; index 1 is the positive class. A
    chosen row z with target t adds logsumexp(z) - z[t], and its gradient is
    softmax(z) - onehot(t): finite at any margin, so a confident wrong
    prediction costs its margin and still passes a gradient of about 1.
    """
    z, target = logits.values, np.asarray(target)
    chosen = target >= 0
    onehot = np.arange(CLASS_COUNT) == target[..., None]  # no entry for target -1
    with np.errstate(invalid="ignore"):  # a NaN logit: a NaN loss, which training.step reports
        lse = np.logaddexp(z[..., 0], z[..., 1])

    def grad_fn(g):
        dz = np.exp(z - lse[..., None]) - onehot
        return (np.where(chosen[..., None], g * dz, 0.0),)

    return ad.record((logits,), np.sum(lse[chosen] - z[onehot]), grad_fn)


def orthogonal_penalty(weights: Sequence[Tensor]) -> Tensor:
    """Frobenius distance of the row-normalized Gram matrix from identity, as one tape op.

    The K weight vectors, (T,) each, are the rows of a K x T matrix; K (B, T)
    ones give a batch of B matrices and the sum of their penalties. Rows are
    scaled to unit length, so the penalty measures only their directions; it
    is zero exactly when they are mutually orthogonal. Every row must be
    nonzero: each attention row is a softmax, whose largest entry is at least
    1/T. One row or none has nothing to be orthogonal to, and its penalty is
    the constant 0.
    """
    try:
        a = np.stack([w.values for w in weights], axis=-2)
    except ValueError as exc:
        raise ad.ShapeError(f"orthogonal_penalty: {exc}") from None
    if a.ndim not in (2, 3):
        raise ad.ShapeError(f"orthogonal_penalty: expected (T,) or (B, T) rows, got {a.shape}")
    if a.shape[-2] <= 1:
        return Tensor(0.0)
    norms = np.sqrt(np.sum(a * a, axis=-1))
    n = a * (1.0 / norms)[..., None]
    # a contiguous transpose: numpy computes n @ n.T by another BLAS routine, to other bits
    d = n @ np.swapaxes(n, -1, -2).copy() - np.eye(a.shape[-2])
    p = np.sqrt(np.sum(d * d, axis=(-2, -1)))

    def grad_fn(g):
        # d(p)/d(d) = d / p, and d is symmetric, so the Gram product passes
        # 2 (d / p) n to n; then back through n = a / |a| row by row; a zero
        # penalty passes nothing
        per_p = 2.0 * np.divide(g, p, out=np.zeros_like(p), where=p != 0.0)
        dn = per_p[..., None, None] * (d @ n)
        da = (dn - n * np.sum(dn * n, axis=-1)[..., None]) / norms[..., None]
        return tuple(np.moveaxis(da, -2, 0))  # row k to weight vector k

    return ad.record(tuple(weights), np.sum(p), grad_fn)


@dataclass
class LossBreakdown:
    """Float values of each objective term actually included in a loss.

    ``aspect_terms`` lists (aspect index, cross-entropy) for the rated
    aspects, in aspect order. Terms that were weightless or structurally
    absent are None. A batch's values are means over its examples; ``l2`` is
    ``l2_penalty``, unweighted. ``total`` is the whole objective: the tape's
    value plus ``l2_weight`` times ``l2``.
    """

    overall: float
    aspect_terms: list
    self_orth: Optional[float]
    pos_orth: Optional[float]
    l2: Optional[float]
    total: float


def l2_penalty(params: ModelParams) -> float:
    """Sum of the squares of the entries of every parameter outside
    ``L2_EXEMPT``: one ``np.vdot`` per tensor, in ``named_tensors`` order,
    with no product array."""
    return float(sum(
        np.vdot(t.values, t.values) for name, t in params.named_tensors() if name not in L2_EXEMPT
    ))


def combined_loss(
    output: ForwardOutput, example, params: ModelParams, config: ModelConfig
) -> tuple[Tensor, LossBreakdown]:
    """The objective for one example, or its mean over a batch record, as the
    tape's root and the value of every term.

    Every rated aspect contributes cross-entropy; unrated ones do not, but
    their traces still feed the orthogonality terms. Each term is one tape
    op, summed over a batch's rows, each weight one ``mul`` and each sum one
    ``add``, and a batch adds one ``mul`` by 1/B. The L2 term is off the tape
    (the optimizer applies its gradient); its value joins ``total``.
    """
    targets = example.aspect_labels  # (K,) or (B, K) ints, -1 where unrated
    rows = len(targets) if targets.ndim == 2 else 1
    total = cross_entropy(output.overall_logits, example.overall_label)
    overall_value = total.item() / rows

    rated = [k for k in range(config.aspect_count) if np.any(targets[..., k] >= 0)]
    aspect_terms = []
    if rated and config.aspect_loss_weight > 0:
        aspect_sum = None
        for k in rated:
            term = cross_entropy(output.aspect_logits[k], targets[..., k])
            aspect_terms.append((k, term.item() / rows))
            aspect_sum = term if aspect_sum is None else ad.add(aspect_sum, term)
        total = ad.add(total, ad.mul(aspect_sum, Tensor(config.aspect_loss_weight)))

    self_orth_value = None
    if config.self_orth_weight > 0:
        self_orth = orthogonal_penalty([t.self_weights for t in output.traces])
        self_orth_value = self_orth.item() / rows
        total = ad.add(total, ad.mul(self_orth, Tensor(config.self_orth_weight)))

    pos_orth_value = None
    if not config.disable_position_attention and config.pos_orth_weight > 0:
        pos_orth = orthogonal_penalty([t.pos_weights for t in output.traces])
        pos_orth_value = pos_orth.item() / rows
        total = ad.add(total, ad.mul(pos_orth, Tensor(config.pos_orth_weight)))

    if targets.ndim == 2:
        total = ad.mul(total, Tensor(1.0 / rows))

    l2 = l2_penalty(params) if config.l2_weight > 0 else None
    value = total.item() if l2 is None else total.item() + config.l2_weight * l2
    values = (overall_value, aspect_terms, self_orth_value, pos_orth_value, l2)
    return total, LossBreakdown(*values, total=value)


def aspect_rank(traces: Sequence[AttentionTrace]):
    """Rank aspects by score, descending; ties break on index.

    An aspect's score is its attention mass, the sum of both weight
    vectors, times its context vector's Euclidean norm. Each weight vector
    is softmax-normalized, so the mass alone is 2 for every aspect (1
    without the position stage) up to rounding; the norm orders them.
    """
    scores = []
    for k, trace in enumerate(traces):
        mass = float(np.sum(trace.self_weights.values))
        if trace.pos_weights is not None:
            mass += float(np.sum(trace.pos_weights.values))
        mass *= float(np.linalg.norm(trace.context.values))
        scores.append((k, mass))
    return sorted(scores, key=lambda pair: (-pair[1], pair[0]))


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, config: ModelConfig, vocab: Vocabulary, params: ModelParams) -> None:
    """Write config, vocabulary, preprocessing record and every parameter to one archive.

    The archive is written to a temporary file beside ``path`` and then
    renamed over it, so a failed save leaves any earlier checkpoint intact.
    """
    meta = {
        "format_version": CHECKPOINT_FORMAT,
        "config": asdict(config),
        "vocabulary": vocab.id_to_token,
        "preprocess": PreprocessRules.default().record(),
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


def _from_json(value, hint):
    """A checkpoint config's JSON value, if it has the field's type.

    A float field takes an int too, and a bool is no int; the one list field
    holds aspect names.
    """
    if hint is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, (int, float) if hint is float else hint)
        ok = ok and isinstance(value, bool) == (hint is bool)
    if not ok:
        raise ValueError(f"not of type {hint.__name__}")
    return float(value) if hint is float else value


class _NoDraws:
    """Stands in for a generator: ``uniform`` gives an array of the asked
    shape whose entries share one float, so a V x d table takes no memory
    (a fresh V x d buffer, freed at once, slowed the next archive read)."""

    @staticmethod
    def uniform(low, high, size):
        shape = tuple(np.atleast_1d(size))
        return np.ndarray(shape, buffer=np.zeros(1), strides=(0,) * len(shape))


def load_checkpoint(path) -> tuple[ModelConfig, Vocabulary, ModelParams]:
    """Rebuild config, vocabulary, and parameters; values round-trip exactly.

    Raises InputError, naming the file, when the file cannot be opened or
    is not a readable archive with a meta record holding the config and
    vocabulary, when the format version or the preprocessing record differs
    from the current one, when a config key is unknown, a config value has
    the wrong type or is out of range, when the vocabulary is not a list of
    distinct strings that begins with the padding and unknown tokens, when
    the parameter names and shapes do not match the layout ``init_params``
    builds, or when a parameter holds a value that is not a finite number.
    The parameters wrap the archive's arrays as float64; no value is drawn
    at random.
    """

    def fail(message):
        raise InputError(f"checkpoint {path}: {message}")

    try:
        fh = open(path, "rb")
    except OSError as exc:
        fail(exc.strerror)
    try:
        with fh, np.load(fh) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            arrays = {
                key[len("param/"):]: archive[key]
                for key in archive.files
                if key.startswith("param/")
            }
    except (OSError, ValueError, EOFError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        fail(f"not a readable checkpoint archive ({type(exc).__name__}: {exc})")
    if not isinstance(meta, dict) or not {"config", "vocabulary"} <= meta.keys():
        fail("meta record lacks the config or the vocabulary")
    if not isinstance(meta["config"], dict):
        fail("meta record's config is not a key-value map")

    version = meta.get("format_version")
    if version != CHECKPOINT_FORMAT:
        fail(f"format version {version} is not {CHECKPOINT_FORMAT}; retrain the model")
    recorded = meta.get("preprocess", {})
    if not isinstance(recorded, dict):
        fail("meta record's preprocessing record is not a key-value map")
    for key, current in PreprocessRules.default().record().items():
        if recorded.get(key) != current:
            fail(f"preprocessing {key} {recorded.get(key)!r} is not {current!r}; retrain the model")
    try:
        config = read_settings(ModelConfig, meta["config"], _from_json)
    except ValueError as exc:
        fail(f"config: {exc}")
    tokens = meta["vocabulary"]
    if not (
        isinstance(tokens, list)
        and all(isinstance(t, str) for t in tokens)
        and tokens[:2] == [PAD_TOKEN, UNK_TOKEN]
        and len(set(tokens)) == len(tokens)
    ):
        fail(f"vocabulary is not a list of distinct strings beginning {PAD_TOKEN!r}, {UNK_TOKEN!r}")
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens)
    params = _build_params(config, len(vocab), _NoDraws, _NoDraws)
    for name, tensor in params.named_tensors():
        if name not in arrays:
            fail(f"parameter {name} is missing")
        values = arrays.pop(name)
        if values.shape != tensor.values.shape:
            fail(f"parameter {name} has shape {values.shape}, expected {tensor.values.shape}")
        if values.dtype.kind not in "fiu":
            fail(f"parameter {name} holds {values.dtype} values, not real numbers")
        tensor.values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(tensor.values)):
            fail(f"parameter {name} holds a non-finite value")
    if arrays:
        fail(f"unexpected parameters {sorted(arrays)}")
    return config, vocab, params
