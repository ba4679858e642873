"""Optimizers, the training loop, evaluation metrics, and ablation runs.

Training is deterministic for a fixed (seed, config, data) triple: all
randomness flows from one generator, and evaluation is pure. The best
validation checkpoint (by overall macro-F1) is what a run returns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import NumericError, Tape, Tensor, backward
from aspectsent.data import DatasetSplit, batch_iter
from aspectsent.model import (
    ModelConfig,
    ModelParams,
    combined_loss,
    forward,
    init_params,
)


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # "adam" or "sgd"
    learning_rate: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    patience: int = 5  # epochs without validation macro-F1 improvement

    def validate(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class AdamState:
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)
    step: int = 0


def _gradient(name: str, tensor: Tensor) -> np.ndarray:
    g = tensor.grad
    if g is None:
        return np.zeros_like(tensor.values)
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    return g


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    state.step += 1
    t = state.step
    for name, p in named_params:
        g = _gradient(name, p)
        m = state.first.get(name)
        v = state.second.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            v = np.zeros_like(p.values)
        m = config.beta1 * m + (1 - config.beta1) * g
        v = config.beta2 * v + (1 - config.beta2) * g * g
        state.first[name] = m
        state.second[name] = v
        m_hat = m / (1 - config.beta1**t)
        v_hat = v / (1 - config.beta2**t)
        p.values -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


def sgd_step(named_params, config: TrainConfig) -> None:
    for name, p in named_params:
        p.values -= config.learning_rate * _gradient(name, p)


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


def predict(example, params: ModelParams, config: ModelConfig):
    out = forward(example, params, config)
    overall = int(np.argmax(out.overall_probs.values))
    aspects = [int(np.argmax(p.values)) for p in out.aspect_probs]
    return overall, aspects


def evaluate(params: ModelParams, config: ModelConfig, examples) -> EvaluationReport:
    overall_true, overall_pred = [], []
    aspect_true = [[] for _ in range(config.aspect_count)]
    aspect_pred = [[] for _ in range(config.aspect_count)]
    for ex in examples:
        overall, aspects = predict(ex, params, config)
        overall_true.append(ex.overall_label)
        overall_pred.append(overall)
        for k, label in enumerate(ex.aspect_labels):
            if label is not None:
                aspect_true[k].append(label)
                aspect_pred[k].append(aspects[k])
    return EvaluationReport(
        overall=compute_metrics(overall_true, overall_pred),
        aspects=[
            compute_metrics(aspect_true[k], aspect_pred[k])
            for k in range(config.aspect_count)
        ],
    )


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


def train(
    params: ModelParams,
    model_config: ModelConfig,
    train_config: TrainConfig,
    data: DatasetSplit,
) -> TrainResult:
    """Optimize the combined objective; returns the best-validation params.

    Each epoch shuffles the training part, takes one optimizer step per
    padded batch (batch loss is the mean of per-example losses), then
    evaluates on the validation part. The parameter snapshot with the best
    validation macro-F1 is restored at the end. Training stops early after
    ``patience`` epochs without improvement.
    """
    train_config.validate()
    model_config.validate()
    rng = np.random.default_rng(train_config.seed)
    named = params.named_tensors()
    tensors = [t for _, t in named]
    adam_state = AdamState()

    log: list[EpochRecord] = []
    best_macro_f1 = -1.0
    best_epoch = -1
    best_snapshot = _snapshot(params)
    batch_index = 0
    for epoch in range(train_config.epochs):
        losses = []
        for batch in batch_iter(data.train, train_config.batch_size, rng):
            with Tape():
                total = None
                for ex in batch:
                    out = forward(ex, params, model_config)
                    loss, _ = combined_loss(out, ex, params, model_config)
                    total = loss if total is None else ad.add(total, loss)
                batch_loss = ad.scale(total, 1.0 / len(batch))
                if not np.isfinite(batch_loss.values):
                    raise NumericError(f"non-finite loss in batch {batch_index}")
                backward(batch_loss)
            params.clear_padding_gradient()
            if train_config.optimizer == "adam":
                adam_step(named, adam_state, train_config)
            else:
                sgd_step(named, train_config)
            ad.zero_grads(tensors)
            losses.append(batch_loss.item())
            batch_index += 1

        validation = evaluate(params, model_config, data.validation)
        log.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)) if losses else 0.0,
                validation=validation,
            )
        )
        if validation.overall.macro_f1 > best_macro_f1:
            best_macro_f1 = validation.overall.macro_f1
            best_epoch = epoch
            best_snapshot = _snapshot(params)
        if epoch - best_epoch >= train_config.patience:
            break

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


@dataclass
class AblationRow:
    name: str
    parameter_count: int
    test_accuracy: float
    test_macro_f1: float
    validation_macro_f1: float


def run_ablation(
    variants,
    data: DatasetSplit,
    train_config: TrainConfig,
    vocab_size: int,
):
    """Train every variant with the same seed and data; one row per variant."""
    rows = []
    for name, config in variants:
        params = init_params(config, vocab_size, seed=train_config.seed)
        result = train(params, config, train_config, data)
        report = evaluate(result.params, config, data.test)
        rows.append(
            AblationRow(
                name=name,
                parameter_count=params.parameter_count(),
                test_accuracy=report.overall.accuracy,
                test_macro_f1=report.overall.macro_f1,
                validation_macro_f1=result.best_macro_f1,
            )
        )
    return rows


def write_ablation_table(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "parameters", "test_accuracy", "test_macro_f1", "validation_macro_f1"]
        )
        for row in rows:
            writer.writerow(
                [row.name, row.parameter_count, repr(row.test_accuracy),
                 repr(row.test_macro_f1), repr(row.validation_macro_f1)]
            )


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
