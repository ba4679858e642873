"""The Adam optimizer, the training loop, evaluation metrics, the ablation grid and its table.

Training is deterministic for a fixed (seed, config, data) triple: all
randomness flows from one generator, and evaluation is pure. The best
validation checkpoint (by overall macro-F1) is what a run returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import NumericError, Tape, backward
from aspectsent.data import DatasetSplit, batch_iter, collate
from aspectsent.model import (
    L2_EXEMPT,
    LossBreakdown,
    ModelConfig,
    ModelParams,
    check_range,
    combined_loss,
    forward,
)


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings and Adam's learning rate, checked when made; Adam's other
    settings are the constants ``BETA1``, ``BETA2`` and ``EPS``."""

    learning_rate: float = 0.005
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    patience: int = 5  # epochs without validation macro-F1 improvement

    def __post_init__(self) -> None:
        check_range(self, ("learning_rate",), lambda v: v > 0, "positive")
        check_range(self, ("epochs", "batch_size", "patience"), lambda v: v >= 1, "at least 1")
        check_range(self, ("seed",), lambda v: v >= 0, "non-negative")


# ---------------------------------------------------------------------------
# optimizer: Adam at TrainConfig's learning_rate, with Kingma & Ba's decay
# rates and guard (arXiv 1412.6980), the only values this model has trained with

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)
    step: int = 0


def adam_step(named_params, state: AdamState, config: TrainConfig, l2_weight: float = 0.0) -> None:
    """One bias-corrected adaptive-moment update, in place, with coupled L2.

    The gradient ``g`` of a parameter outside ``model.L2_EXEMPT`` gains
    ``2 * l2_weight * p``, the gradient of the model's L2 term, which the
    tape does not hold; a missing gradient buffer counts as zero. At step
    ``t`` the update is ``m = BETA1*m + (1-BETA1)*g``,
    ``v = BETA2*v + (1-BETA2)*g*g`` and
    ``p -= lr * (m / (1-BETA1**t)) / (sqrt(v / (1-BETA2**t)) + EPS)``, run in
    that order in two scratch arrays per parameter; every operation is
    elementwise, so every value matches the formula to the bit.

    A dense, decayed or absent gradient updates the whole parameter and its
    moments in place. An ``autodiff.RowGrad`` with no decay updates its rows
    alone, gathered from p and the moments and scattered back: lazy Adam, as
    PyTorch's ``SparseAdam``. Other rows keep their values and moments; from
    fresh moments that equals the whole-matrix step, which moves a
    zero-gradient row by zero. The moments are whole arrays, made at a
    parameter's first step.

    Each gradient is checked whole once the decay has joined it: a
    non-finite entry raises ``NumericError`` naming the parameter before it
    or its moments change (the parameters before it are already updated).
    """
    state.step += 1
    t = state.step
    m_scale = 1 - BETA1**t
    v_scale = 1 - BETA2**t
    for name, p in named_params:
        decay = 0.0 if name in L2_EXEMPT else 2.0 * l2_weight
        m = state.first.get(name)
        v = state.second.get(name)
        if m is None:
            m = state.first[name] = np.zeros(p.values.shape)
            v = state.second[name] = np.zeros(p.values.shape)
        grad = p.grad
        if isinstance(grad, ad.RowGrad) and decay:
            grad = grad.dense(p.values.shape)  # the decay reaches every row
        if isinstance(grad, ad.RowGrad):  # copies of the touched rows
            rows, g = grad.rows, grad.sums
            pv, mv, vv = p.values[rows], m[rows], v[rows]
        else:
            rows, pv, mv, vv = None, p.values, m, v
            g = np.broadcast_to(0.0, pv.shape) if grad is None else grad
        step, denom = np.empty(pv.shape), np.empty(pv.shape)
        if decay:  # the gradient, held in denom until the denominator is formed
            np.multiply(pv, decay, out=denom)
            g = denom if grad is None else np.add(denom, g, out=denom)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        mv *= BETA1
        np.multiply(1 - BETA1, g, out=step)
        mv += step
        vv *= BETA2
        np.multiply(1 - BETA2, g, out=step)
        step *= g
        vv += step
        np.divide(vv, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(mv, m_scale, out=step)
        np.multiply(config.learning_rate, step, out=step)
        step /= denom
        pv -= step
        if rows is not None:
            p.values[rows], m[rows], v[rows] = pv, mv, vv


# ---------------------------------------------------------------------------
# metrics


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    per_class: list  # ClassMetrics for [negative, positive]
    confusion: np.ndarray  # rows true, cols predicted: [[tn, fp], [fn, tp]]
    support: int


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute_metrics(y_true: Sequence[int], y_pred: Sequence[int]) -> Metrics:
    """Accuracy, per-class precision/recall/F1, and macro-F1; 0/0 counts as 0."""
    confusion = np.zeros((2, 2), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    total = int(confusion.sum())
    accuracy = _safe_div(float(confusion[0, 0] + confusion[1, 1]), total)
    per_class = []
    for cls in (0, 1):
        tp = float(confusion[cls, cls])
        precision = _safe_div(tp, float(confusion[:, cls].sum()))
        recall = _safe_div(tp, float(confusion[cls, :].sum()))
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class.append(ClassMetrics(precision, recall, f1))
    macro_f1 = (per_class[0].f1 + per_class[1].f1) / 2
    return Metrics(accuracy, macro_f1, per_class, confusion, total)


@dataclass
class EvaluationReport:
    overall: Metrics
    aspects: list  # Metrics per aspect, over examples where that aspect is rated


EVAL_CHUNK = 32  # examples per forward pass of evaluate


def evaluate(params: ModelParams, config: ModelConfig, examples) -> EvaluationReport:
    """Metrics of the predictions, made without a tape, a collated chunk of
    ``EVAL_CHUNK`` examples per forward pass: one argmax over the logits gives
    each head's, scored where its label column (the overall head's last) rates
    the example. No examples give zero support."""
    truth = [[] for _ in range(config.aspect_count + 1)]
    predictions = [[] for _ in truth]
    for start in range(0, len(examples), EVAL_CHUNK):
        record = collate(examples[start : start + EVAL_CHUNK])
        predicted = np.argmax(forward(record, params, config).logits.values, axis=-1)
        labels = np.column_stack([record.aspect_labels, record.overall_label])
        for k, (true, pred) in enumerate(zip(truth, predictions)):
            rated = labels[:, k] >= 0
            true.extend(labels[rated, k].tolist())
            pred.extend(predicted[rated, k].tolist())
    metrics = [compute_metrics(true, pred) for true, pred in zip(truth, predictions)]
    return EvaluationReport(overall=metrics[-1], aspects=metrics[:-1])


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    validation: EvaluationReport


@dataclass
class TrainResult:
    params: ModelParams
    log: list  # EpochRecord per completed epoch
    best_epoch: int
    best_macro_f1: float


def _snapshot(params: ModelParams) -> dict:
    return {name: t.values.copy() for name, t in params.named_tensors()}


def _restore(params: ModelParams, snapshot: dict) -> None:
    for name, t in params.named_tensors():
        t.values[...] = snapshot[name]


def step(params: ModelParams, adam_state: AdamState, record, model_config: ModelConfig,
         train_config: TrainConfig) -> LossBreakdown:
    """One Adam step on a record made by ``data.collate``; returns its loss
    breakdown, whose ``total`` is the whole objective before the step.

    One tape records ``forward``, ``combined_loss`` and ``backward``; a
    non-finite objective raises ``NumericError`` before the backward pass,
    with the parameters and Adam moments unchanged. Then ``adam_step`` and
    ``zero_grads``. Each is looked up in this module: a wrapper set here sees it.
    """
    named = params.named_tensors()
    with Tape():
        out = forward(record, params, model_config)
        loss, breakdown = combined_loss(out, record, params, model_config)
        if not math.isfinite(breakdown.total):
            raise NumericError(f"non-finite loss {breakdown.total!r}")
        backward(loss)
    adam_step(named, adam_state, train_config, model_config.l2_weight)
    ad.zero_grads([t for _, t in named])
    return breakdown


def train(
    params: ModelParams,
    model_config: ModelConfig,
    train_config: TrainConfig,
    data: DatasetSplit,
) -> TrainResult:
    """Optimize the combined objective; returns the best-validation params.

    Each epoch shuffles the training part, runs one ``step`` per batch,
    collated into one padded record, then evaluates on the validation part.
    An epoch's logged loss is the mean of its steps' ``total``. The
    parameters with the best validation macro-F1 are what the run returns:
    they are copied aside only when a later epoch could still change them,
    and restored only when a later epoch did. Training stops early after
    ``patience`` epochs without improvement.
    """
    rng = np.random.default_rng(train_config.seed)
    adam_state = AdamState()

    log: list[EpochRecord] = []
    best_macro_f1 = -1.0  # below any macro-F1, so epoch 0 is always best so far
    best_epoch = -1
    best_snapshot = None
    for epoch in range(train_config.epochs):
        losses = [
            step(params, adam_state, collate(batch), model_config, train_config).total
            for batch in batch_iter(data.train, train_config.batch_size, rng)
        ]
        validation = evaluate(params, model_config, data.validation)
        log.append(EpochRecord(epoch, float(np.mean(losses)) if losses else 0.0, validation))
        if validation.overall.macro_f1 > best_macro_f1:
            best_macro_f1 = validation.overall.macro_f1
            best_epoch = epoch
            if epoch + 1 < train_config.epochs:
                best_snapshot = _snapshot(params)
        if epoch - best_epoch >= train_config.patience:
            break

    if best_epoch != log[-1].epoch:
        _restore(params, best_snapshot)
    return TrainResult(params, log, best_epoch, best_macro_f1)


# ---------------------------------------------------------------------------
# ablation


def standard_ablation_grid(base: ModelConfig):
    """The six standard variants: full model plus five single-change ablations."""
    return [
        ("full", base),
        ("no_position_attention", replace(base, disable_position_attention=True)),
        ("no_pos_orth", replace(base, pos_orth_weight=0.0)),
        ("no_self_orth", replace(base, self_orth_weight=0.0)),
        ("no_orth", replace(base, self_orth_weight=0.0, pos_orth_weight=0.0)),
        ("no_l2", replace(base, l2_weight=0.0)),
    ]


def write_ablation_table(path, rows) -> None:
    """Rows of (variant, parameters, test accuracy, test macro-F1, validation macro-F1) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "parameters", "test_accuracy", "test_macro_f1", "validation_macro_f1"]
        )
        for name, parameter_count, *scores in rows:
            writer.writerow([name, parameter_count, *map(repr, scores)])


# ---------------------------------------------------------------------------
# metric reports


def metrics_to_mapping(report: EvaluationReport, aspect_names) -> dict:
    """Flatten an evaluation report into deterministic key/value pairs."""
    out: dict = {}

    def put(prefix: str, metrics: Metrics) -> None:
        out[f"{prefix}.accuracy"] = metrics.accuracy
        out[f"{prefix}.macro_f1"] = metrics.macro_f1
        out[f"{prefix}.support"] = metrics.support
        for cls, label in ((0, "negative"), (1, "positive")):
            cm = metrics.per_class[cls]
            out[f"{prefix}.{label}.precision"] = cm.precision
            out[f"{prefix}.{label}.recall"] = cm.recall
            out[f"{prefix}.{label}.f1"] = cm.f1
        out[f"{prefix}.confusion.tn"] = int(metrics.confusion[0, 0])
        out[f"{prefix}.confusion.fp"] = int(metrics.confusion[0, 1])
        out[f"{prefix}.confusion.fn"] = int(metrics.confusion[1, 0])
        out[f"{prefix}.confusion.tp"] = int(metrics.confusion[1, 1])

    put("overall", report.overall)
    for name, metrics in zip(aspect_names, report.aspects):
        put(f"aspect.{name}", metrics)
    return out


def write_metrics_kv(path, mapping: dict) -> None:
    """Machine-readable metric file: one ``name = value`` line per metric."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value!r}\n")


def format_metrics_report(report: EvaluationReport, aspect_names) -> str:
    lines = ["head        accuracy  macro_f1  support"]
    rows = [("overall", report.overall)] + list(zip(aspect_names, report.aspects))
    for name, metrics in rows:
        lines.append(
            f"{name:<10}  {metrics.accuracy:8.4f}  {metrics.macro_f1:8.4f}  "
            f"{metrics.support:7d}"
        )
    return "\n".join(lines) + "\n"
