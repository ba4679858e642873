"""Command-line entry points: train, eval, explain, ablate.

Settings come from a flat ``key = value`` config file; results go to files
under --out and all messages to standard error. Exit status is 0 on
success, 1 for an ``InputError`` (a malformed argument, config file, corpus,
vector file or checkpoint, or an --out that cannot be a directory; the
message names the file), 2 for any other exception, a fault of the program.
``ablate`` trains each variant of its grid as ``train`` trains, pretrained
rows included: both make the same run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from aspectsent.data import (
    DOMAIN_ASPECTS,
    DatasetSplit,
    PreprocessRules,
    encode_example,
    ingest,
    preprocess_corpus,
    split,
)
from aspectsent.embeddings import build_vocabulary, load_pretrained
from aspectsent.heatmap import build_report, render_heatmap
from aspectsent.model import (
    ModelConfig,
    check_range,
    forward,
    init_params,
    load_checkpoint,
    read_settings,
    save_checkpoint,
)
from aspectsent.textfile import InputError, read_lines
from aspectsent.training import (
    TrainConfig,
    evaluate,
    format_metrics_report,
    metrics_to_mapping,
    standard_ablation_grid,
    train,
    write_ablation_table,
    write_metrics_kv,
)


@dataclass(frozen=True)
class DataSettings:
    """Corpus and vocabulary settings, checked when made; the aspect names
    come from exactly one of ``domain`` and ``aspects``."""

    domain: str = ""
    aspects: list = field(default_factory=list)
    min_count: int = 1
    embedding_file: str = ""

    def __post_init__(self) -> None:
        check_range(self, ("min_count",), lambda v: v >= 1, "at least 1")
        check_range(self, ("aspects",), lambda v: len(set(v)) == len(v), "distinct")
        if not (self.aspects or self.domain):
            raise ValueError("neither 'domain' nor 'aspects' is set")
        if self.domain and self.domain not in DOMAIN_ASPECTS:
            raise ValueError(
                f"unknown domain {self.domain!r}; expected one of "
                f"{sorted(DOMAIN_ASPECTS)} or an explicit 'aspects' list"
            )
        if self.aspects and self.domain:
            raise ValueError("'domain' and 'aspects' are both set; set one")

    @property
    def aspect_names(self) -> list:
        return list(self.aspects or DOMAIN_ASPECTS[self.domain])


def _parse_text(raw: str, hint):
    """A config file value as its field's type; raises ValueError when it is not one."""
    if hint is list:
        return [item.strip() for item in raw.split(",") if item.strip()]
    if hint is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return hint(raw)


def parse_config_file(path):
    """Read a flat ``key = value`` file into a map of key to (line, value text).

    Errors name the file line.
    """
    where = f"config {path}"
    entries = {}
    for line_no, line in read_lines(path, where):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{where}: line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise InputError(f"{where}: line {line_no}: duplicate key {key!r}")
        entries[key] = (line_no, value.strip())
    return entries


# the settings class each config key belongs to; the aspect names come from
# the data settings, not from a key of their own
_KEY_OWNERS = {
    f.name: cls for cls in (DataSettings, ModelConfig, TrainConfig) for f in fields(cls)
    if f.name != "aspect_names"
}


def build_configs(entries: dict):
    """Route the entries of ``parse_config_file`` to model, trainer, and data
    settings by field name."""
    groups = {cls: {} for cls in set(_KEY_OWNERS.values())}
    lines = {key: line_no for key, (line_no, _) in entries.items()}
    for key, (line_no, raw) in entries.items():
        if key not in _KEY_OWNERS:
            raise InputError(f"line {line_no}: unknown config key {key!r}")
        groups[_KEY_OWNERS[key]][key] = raw
    try:
        data = read_settings(DataSettings, groups[DataSettings], _parse_text, lines)
        model_config = read_settings(
            ModelConfig, groups[ModelConfig], _parse_text, lines, aspect_names=data.aspect_names
        )
        train_config = read_settings(TrainConfig, groups[TrainConfig], _parse_text, lines)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return model_config, train_config, data


def _read_configs(args):
    """The settings of ``--config``, its errors naming the file, with ``--seed`` applied."""
    entries = parse_config_file(args.config)
    try:
        model_config, train_config, data_settings = build_configs(entries)
    except InputError as exc:
        raise InputError(f"config {args.config}: {exc}") from None
    if args.seed is not None:
        train_config = replace(train_config, seed=args.seed)
    return model_config, train_config, data_settings


def _preprocess(data_path, config) -> list:
    """Ingest and preprocess a corpus, reporting the reviews too short to keep."""
    reviews = ingest(data_path, config.aspect_names)
    rules = PreprocessRules.default(max_length=config.max_length)
    processed = preprocess_corpus(reviews, rules)
    print(f"dropped {len(reviews) - len(processed)} of {len(reviews)} reviews", file=sys.stderr)
    return processed


def _prepare_dataset(data_path, model_config, data_settings, seed):
    processed = _preprocess(data_path, model_config)
    try:
        parts = split(processed, seed=seed)
    except InputError as exc:
        raise InputError(f"corpus {data_path}: {exc}") from None
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


def _out_dir(path) -> Path:
    """The ``--out`` directory, made with its parents if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"out {path}: {exc.strerror}") from None
    return out_dir


def _write_reports(out_dir: Path, stem: str, report, aspect_names) -> None:
    write_metrics_kv(out_dir / f"metrics_{stem}.txt", metrics_to_mapping(report, aspect_names))
    (out_dir / f"report_{stem}.txt").write_text(
        format_metrics_report(report, aspect_names), encoding="utf-8"
    )


def _run(model_config, train_config, data_settings, dataset, vocab):
    """A training run: seeded parameters, ``embedding_file`` rows, ``train``, test report."""
    params = init_params(model_config, len(vocab), seed=train_config.seed)
    if data_settings.embedding_file:
        load_pretrained(data_settings.embedding_file, vocab, params.tables)
    result = train(params, model_config, train_config, dataset)
    return result, evaluate(result.params, model_config, dataset.test)


def _cmd_train(args) -> int:
    model_config, train_config, data_settings = _read_configs(args)
    out_dir = _out_dir(args.out)
    dataset, vocab = _prepare_dataset(args.data, model_config, data_settings, train_config.seed)
    result, test = _run(model_config, train_config, data_settings, dataset, vocab)
    save_checkpoint(out_dir / "checkpoint.npz", model_config, vocab, result.params)
    # the best epoch's report: the returned parameters are that epoch's
    _write_reports(
        out_dir, "validation", result.log[result.best_epoch].validation, model_config.aspect_names
    )
    _write_reports(out_dir, "test", test, model_config.aspect_names)
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


def _cmd_eval(args) -> int:
    config, vocab, params = load_checkpoint(args.checkpoint)
    examples = [encode_example(p, vocab) for p in _preprocess(args.data, config)]
    out_dir = _out_dir(args.out)
    _write_reports(out_dir, "eval", evaluate(params, config, examples), config.aspect_names)
    print(f"evaluated {len(examples)} examples", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    config, vocab, params = load_checkpoint(args.checkpoint)
    reviews = _preprocess(args.data, config)
    out_dir = _out_dir(args.out)
    for review in reviews:
        ex = encode_example(review, vocab)
        output = forward(ex, params, config)
        report = build_report(ex.tokens, output, config.aspect_names)
        (out_dir / f"heatmap_{review.line:03d}.html").write_text(
            render_heatmap(report), encoding="utf-8"
        )
        ranking_lines = [
            f"{config.aspect_names[k]} = {score!r}" for k, score in report.ranking
        ]
        (out_dir / f"ranking_{review.line:03d}.txt").write_text(
            "\n".join(ranking_lines) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(reviews)} heatmap reports", file=sys.stderr)
    return 0


def _cmd_ablate(args) -> int:
    """Each grid variant trained as ``train`` trains, pretrained rows included; its row kept."""
    model_config, train_config, data_settings = _read_configs(args)
    out_dir = _out_dir(args.out)
    dataset, vocab = _prepare_dataset(args.data, model_config, data_settings, train_config.seed)

    def row(name, config):
        result, test = _run(config, train_config, data_settings, dataset, vocab)
        return (name, result.params.parameter_count(), test.overall.accuracy,
                test.overall.macro_f1, result.best_macro_f1)

    rows = [row(name, config) for name, config in standard_ablation_grid(model_config)]
    write_ablation_table(out_dir / "ablation.csv", rows)
    print(f"ran {len(rows)} ablation variants", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


_COMMANDS = (  # name, what runs it, help, and the file it reads its settings from
    ("train", _cmd_train, "train a model and write a checkpoint", "--config"),
    ("eval", _cmd_eval, "evaluate a checkpoint on a corpus", "--checkpoint"),
    ("explain", _cmd_explain, "write attention heatmaps per review", "--checkpoint"),
    ("ablate", _cmd_ablate, "train and compare standard ablations", "--config"),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aspectsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, settings in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag in (settings, "--data", "--out"):
            command.add_argument(flag, required=True)
        if settings == "--config":  # the commands that train take a seed
            command.add_argument("--seed", type=_seed, default=None)
        command.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
