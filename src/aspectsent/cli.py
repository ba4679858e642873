"""Command-line entry points: train, eval, explain, ablate.

Settings come from a flat ``key = value`` config file; results go to files
under --out and all messages to standard error. Exit status is 0 on
success, 1 for invalid input or configuration, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from aspectsent.data import (
    DOMAIN_ASPECTS,
    CorpusParseError,
    CorpusValidationError,
    DatasetSplit,
    PreprocessRules,
    SplitConfigError,
    encode_example,
    ingest,
    preprocess_corpus,
    split,
)
from aspectsent.embeddings import (
    EmbeddingConfigError,
    EmbeddingParseError,
    build_vocabulary,
    load_pretrained,
)
from aspectsent.heatmap import build_report, render_heatmap
from aspectsent.model import (
    RANKING_MODES,
    CheckpointFormatError,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    replace_tables,
    save_checkpoint,
)
from aspectsent.training import (
    TrainConfig,
    evaluate,
    format_metrics_report,
    metrics_to_mapping,
    run_ablation,
    standard_ablation_grid,
    train,
    write_ablation_table,
    write_metrics_kv,
)


class ConfigError(ValueError):
    """A config file entry is missing, unknown, or malformed."""


@dataclass
class DataSettings:
    domain: str = ""
    aspects: list = None
    min_count: int = 1
    embedding_file: str = ""

    def aspect_names(self) -> list:
        if self.aspects:
            return self.aspects
        if self.domain:
            try:
                return DOMAIN_ASPECTS[self.domain]
            except KeyError:
                raise ConfigError(
                    f"unknown domain {self.domain!r}; expected one of "
                    f"{sorted(DOMAIN_ASPECTS)} or an explicit 'aspects' list"
                ) from None
        raise ConfigError("config must set 'domain' or 'aspects'")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _field_parsers(cls) -> dict:
    """Map each field of a config dataclass to the parser for its type."""
    parsers = {}
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X] parses as X
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        parsers[name] = _parse_bool if hint is bool else hint
    return parsers


def parse_config_file(path):
    """Read a flat ``key = value`` file into a string map."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            entries[key] = value.strip()
    return entries


def build_configs(entries: dict):
    """Route config entries to model, trainer, and data settings by field name."""
    entries = dict(entries)
    data = DataSettings()
    if "domain" in entries:
        data.domain = entries.pop("domain")
    if "aspects" in entries:
        data.aspects = [a.strip() for a in entries.pop("aspects").split(",") if a.strip()]
    if "min_count" in entries:
        data.min_count = int(entries.pop("min_count"))
    if "embedding_file" in entries:
        data.embedding_file = entries.pop("embedding_file")

    model_kwargs = {"aspect_names": data.aspect_names()}
    train_kwargs = {}
    model_parsers = _field_parsers(ModelConfig)
    del model_parsers["aspect_names"]
    train_parsers = _field_parsers(TrainConfig)
    for key, raw in entries.items():
        if key in model_parsers:
            target, parser = model_kwargs, model_parsers[key]
        elif key in train_parsers:
            target, parser = train_kwargs, train_parsers[key]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            target[key] = parser(raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None

    model_config = ModelConfig(**model_kwargs)
    train_config = TrainConfig(**train_kwargs)
    try:
        model_config.validate()
        train_config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model_config, train_config, data


def _prepare_dataset(data_path, model_config, data_settings, seed):
    reviews = ingest(data_path, model_config.aspect_names)
    rules = PreprocessRules.default(max_length=model_config.max_length)
    processed = preprocess_corpus(reviews, rules)
    parts = split(processed, seed=seed)
    vocab = build_vocabulary(
        [p.tokens for p in parts.train], min_count=data_settings.min_count
    )
    encoded = DatasetSplit(
        train=[encode_example(p, vocab) for p in parts.train],
        validation=[encode_example(p, vocab) for p in parts.validation],
        test=[encode_example(p, vocab) for p in parts.test],
        seed=seed,
    )
    return encoded, vocab


def _write_reports(out_dir: Path, stem: str, report, aspect_names) -> None:
    write_metrics_kv(out_dir / f"metrics_{stem}.txt", metrics_to_mapping(report, aspect_names))
    (out_dir / f"report_{stem}.txt").write_text(
        format_metrics_report(report, aspect_names), encoding="utf-8"
    )


def _cmd_train(args) -> int:
    model_config, train_config, data_settings = build_configs(parse_config_file(args.config))
    if args.seed is not None:
        train_config.seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset, vocab = _prepare_dataset(args.data, model_config, data_settings, train_config.seed)
    params = init_params(model_config, len(vocab), seed=train_config.seed)
    if data_settings.embedding_file:
        tables = load_pretrained(
            data_settings.embedding_file, vocab, model_config.embedding_width,
            model_config.max_length, seed=train_config.seed,
        )
        params = replace_tables(params, tables)

    result = train(params, model_config, train_config, dataset)
    save_checkpoint(out_dir / "checkpoint.npz", model_config, vocab, result.params)
    _write_reports(
        out_dir, "validation",
        evaluate(result.params, model_config, dataset.validation),
        model_config.aspect_names,
    )
    _write_reports(
        out_dir, "test",
        evaluate(result.params, model_config, dataset.test),
        model_config.aspect_names,
    )
    with open(out_dir / "epochs.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss,validation_macro_f1\n")
        for record in result.log:
            fh.write(
                f"{record.epoch},{record.mean_loss!r},"
                f"{record.validation.overall.macro_f1!r}\n"
            )
    print(
        f"trained {len(result.log)} epochs; best epoch {result.best_epoch} "
        f"(validation macro-F1 {result.best_macro_f1:.4f})",
        file=sys.stderr,
    )
    return 0


def _load_examples_for_checkpoint(data_path, config, vocab):
    reviews = ingest(data_path, config.aspect_names)
    rules = PreprocessRules.default(max_length=config.max_length)
    processed = preprocess_corpus(reviews, rules)
    return [encode_example(p, vocab) for p in processed]


def _cmd_eval(args) -> int:
    config, vocab, params = load_checkpoint(args.checkpoint)
    examples = _load_examples_for_checkpoint(args.data, config, vocab)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports(out_dir, "eval", evaluate(params, config, examples), config.aspect_names)
    print(f"evaluated {len(examples)} examples", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    config, vocab, params = load_checkpoint(args.checkpoint)
    examples = _load_examples_for_checkpoint(args.data, config, vocab)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, ex in enumerate(examples):
        output = forward(ex, params, config)
        report = build_report(ex.tokens, output, config.aspect_names, args.ranking_mode)
        (out_dir / f"heatmap_{index:03d}.html").write_text(
            render_heatmap(report), encoding="utf-8"
        )
        ranking_lines = [
            f"{config.aspect_names[k]} = {score!r}" for k, score in report.ranking
        ]
        (out_dir / f"ranking_{index:03d}.txt").write_text(
            "\n".join(ranking_lines) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(examples)} heatmap reports", file=sys.stderr)
    return 0


def _cmd_ablate(args) -> int:
    model_config, train_config, data_settings = build_configs(parse_config_file(args.config))
    if args.seed is not None:
        train_config.seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset, vocab = _prepare_dataset(args.data, model_config, data_settings, train_config.seed)
    rows = run_ablation(
        standard_ablation_grid(model_config), dataset, train_config, len(vocab)
    )
    write_ablation_table(out_dir / "ablation.csv", rows)
    print(f"ran {len(rows)} ablation variants", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aspectsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train a model and write a checkpoint")
    train_p.add_argument("--config", required=True)
    train_p.add_argument("--data", required=True)
    train_p.add_argument("--out", required=True)
    train_p.add_argument("--seed", type=int, default=None)
    train_p.set_defaults(run=_cmd_train)

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--data", required=True)
    eval_p.add_argument("--out", required=True)
    eval_p.set_defaults(run=_cmd_eval)

    explain_p = sub.add_parser("explain", help="write attention heatmaps per review")
    explain_p.add_argument("--checkpoint", required=True)
    explain_p.add_argument("--data", required=True)
    explain_p.add_argument("--out", required=True)
    explain_p.add_argument("--ranking-mode", choices=RANKING_MODES, default="magnitude")
    explain_p.set_defaults(run=_cmd_explain)

    ablate_p = sub.add_parser("ablate", help="train and compare standard ablations")
    ablate_p.add_argument("--config", required=True)
    ablate_p.add_argument("--data", required=True)
    ablate_p.add_argument("--out", required=True)
    ablate_p.add_argument("--seed", type=int, default=None)
    ablate_p.set_defaults(run=_cmd_ablate)
    return parser


_VALIDATION_ERRORS = (
    ConfigError,
    CheckpointFormatError,
    CorpusParseError,
    CorpusValidationError,
    SplitConfigError,
    EmbeddingParseError,
    EmbeddingConfigError,
    FileNotFoundError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
