import csv
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from aspectsent.cli import DataSettings, build_configs, main, parse_config_file
from aspectsent.heatmap import HeatmapReport, build_report, render_heatmap
from aspectsent.data import PreprocessRules, RawReview, preprocess
from aspectsent import training
from aspectsent.embeddings import PAD_ID, Vocabulary
from aspectsent.model import (
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from aspectsent.recurrent import GATES
from aspectsent.textfile import InputError
from aspectsent.training import TrainConfig
from tests.corpus import synthetic_reviews, synthetic_split, tiny_model_config, write_jsonl
from tests.test_model import rewrite_checkpoint

CONFIG_TEXT = """
# synthetic two-aspect setup
aspects = food, service
embedding_width = 6
cell_width = 6
max_length = 16
epochs = 2
batch_size = 8
seed = 3
patience = 10
learning_rate = 0.005
"""


@pytest.fixture
def corpus_path(tmp_path):
    return write_jsonl(tmp_path / "reviews.jsonl", synthetic_reviews(24, seed=0))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(CONFIG_TEXT)
    return path


def test_parse_config_file_and_routing(config_path):
    entries = parse_config_file(config_path)
    model_config, train_config, data = build_configs(entries)
    assert model_config.aspect_names == ["food", "service"]
    assert model_config.cell_width == 6
    assert model_config.hidden_width == 12
    assert train_config.epochs == 2
    assert train_config.seed == 3


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects = a, b\nmystery_knob = 3\n")
    with pytest.raises(InputError, match="mystery_knob"):
        build_configs(parse_config_file(path))
    with pytest.raises(InputError, match="^line 2: unknown config key 'mystery_knob'$"):
        build_configs(parse_config_file(path))


def test_config_requires_domain_or_aspects(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("epochs = 2\n")
    with pytest.raises(InputError):
        build_configs(parse_config_file(path))


def test_config_domain_lookup(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("domain = restaurant\n")
    model_config, _, _ = build_configs(parse_config_file(path))
    assert model_config.aspect_names == ["Food", "Service", "Value", "Atmosphere"]


def test_config_bad_boolean(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects = a, b\ndisable_position_attention = maybe\n")
    with pytest.raises(InputError):
        build_configs(parse_config_file(path))


# a valid non-default value per config key, as written and as parsed
CONFIG_SAMPLES = {
    "embedding_width": ("5", 5),
    "cell_width": ("7", 7),
    "max_length": ("12", 12),
    "aspect_loss_weight": ("0.25", 0.25),
    "self_orth_weight": ("0", 0.0),
    "pos_orth_weight": ("1.5", 1.5),
    "l2_weight": ("0.002", 0.002),
    "disable_position_attention": ("yes", True),
    "learning_rate": ("0.02", 0.02),
    "epochs": ("3", 3),
    "batch_size": ("4", 4),
    "seed": ("11", 11),
    "patience": ("2", 2),
    "domain": ("restaurant", "restaurant"),
    "min_count": ("3", 3),
    "embedding_file": ("vectors.txt", "vectors.txt"),
}


@pytest.mark.parametrize(
    "key",
    [
        f.name for cls in (ModelConfig, TrainConfig, DataSettings) for f in fields(cls)
        if f.name not in ("aspect_names", "aspects")
    ],
)
def test_every_config_key_parses_to_its_field_type(tmp_path, key):
    raw, expected = CONFIG_SAMPLES[key]
    path = tmp_path / "config.txt"
    aspects = "" if key == "domain" else "aspects = a, b\n"  # one source of aspect names
    path.write_text(f"{aspects}{key} = {raw}\n")
    configs = build_configs(parse_config_file(path))
    value = getattr(next(c for c in configs if hasattr(c, key)), key)
    assert value == expected
    assert type(value) is type(expected)


@pytest.mark.parametrize(
    "key",
    ["disable_l2", "class_count", "stop_train_accuracy", "bidirectional", "optimizer",
     "max_rated_aspects", "beta1", "beta2", "eps"],
)
def test_removed_config_keys_rejected(tmp_path, corpus_path, key, capsys):
    path = tmp_path / "config.txt"
    path.write_text(CONFIG_TEXT + f"{key} = 1\n")
    status = main(
        ["train", "--config", str(path), "--data", str(corpus_path),
         "--out", str(tmp_path / "run")]
    )
    assert status == 1
    assert key in capsys.readouterr().err


# (key, value, the message that names the key): values that do not parse,
# then values that parse but lie outside the key's range
BAD_CONFIG_VALUES = [
    ("min_count", "abc", "bad value for 'min_count': 'abc'"),
    ("epochs", "two", "bad value for 'epochs': 'two'"),
    ("learning_rate", "fast", "bad value for 'learning_rate': 'fast'"),
    ("embedding_width", "-3", "embedding_width must be at least 1"),
    ("cell_width", "0", "cell_width must be at least 1"),
    ("max_length", "0", "max_length must be at least 1"),
    ("patience", "-1", "patience must be at least 1"),
    ("min_count", "-4", "min_count must be at least 1"),
    ("learning_rate", "0", "learning_rate must be positive"),
    ("learning_rate", "inf", "bad value for 'learning_rate': 'inf'"),
    ("aspect_loss_weight", "inf", "bad value for 'aspect_loss_weight': 'inf'"),
    ("learning_rate", "nan", "bad value for 'learning_rate': 'nan'"),
    ("aspects", "food, food", "aspects must be distinct, got ['food', 'food']"),
    ("domain", "bogus", "unknown domain 'bogus'"),
]


@pytest.mark.parametrize(
    "key, raw, message", BAD_CONFIG_VALUES, ids=[f"{k}-{r}" for k, r, _ in BAD_CONFIG_VALUES]
)
def test_bad_config_value_exits_1_naming_key(tmp_path, corpus_path, key, raw, message, capsys):
    path = tmp_path / "config.txt"
    # a case that sets the aspects itself needs no other key
    first = "min_count = 1" if key == "aspects" else "aspects = food, service"
    path.write_text(f"{first}\n{key} = {raw}\n")
    with pytest.raises(InputError, match=re.escape(message)):
        build_configs(parse_config_file(path))
    status = main(
        ["train", "--config", str(path), "--data", str(corpus_path),
         "--out", str(tmp_path / "run")]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert message in err
    # a value that does not convert names its line; a range is checked once
    # every key is read, so its error names only the key and the value
    at = "line 2: " if message.startswith("bad value") else ""
    assert err.splitlines()[-1].startswith(f"error: config {path}: {at}{message}")


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("form", ["config", "flag"])
def test_negative_seed_exits_1_naming_seed(tmp_path, corpus_path, config_path, command, form,
                                          capsys):
    # a negative seed is bad input: it must not reach the random generator
    if form == "config":
        config_path.write_text(CONFIG_TEXT.replace("seed = 3", "seed = -2"))
        flags, message = [], f"error: config {config_path}: seed must be non-negative, got -2"
    else:
        flags, message = ["--seed", "-1"], "error: argument --seed: expected a non-negative"
    out = tmp_path / "out"
    status = main(
        [command, "--config", str(config_path), "--data", str(corpus_path), "--out", str(out)]
        + flags
    )
    assert status == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_domain_and_aspects_together_exit_1_naming_both(tmp_path, corpus_path, config_path,
                                                       command, capsys):
    # the aspect names come from one source; a domain beside a list is not a choice
    config_path.write_text("domain = restaurant\n" + CONFIG_TEXT)
    out = tmp_path / "out"
    status = main(
        [command, "--config", str(config_path), "--data", str(corpus_path), "--out", str(out)]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config_path}: ")
    assert "'domain'" in err and "'aspects'" in err
    assert not out.exists()


def test_config_malformed_line(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects a, b\n")
    with pytest.raises(InputError, match="line 1"):
        parse_config_file(path)


def test_cli_train_writes_outputs(tmp_path, corpus_path, config_path, capsys):
    out_dir = tmp_path / "run"
    status = main(
        ["train", "--config", str(config_path), "--data", str(corpus_path),
         "--out", str(out_dir)]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out == ""  # results go to files, messages to stderr
    assert "trained" in captured.err
    for name in (
        "checkpoint.npz", "metrics_validation.txt", "metrics_test.txt",
        "report_validation.txt", "report_test.txt", "epochs.csv",
    ):
        assert (out_dir / name).exists(), name


def use_vectors(tmp_path, config_path):
    """Set ``embedding_file`` to a width-6 vector file; returns its rows by token."""
    tokens = ["<pad>", "pizza", "menu", "absent"]
    rows = {token: np.arange(6.0) + 10 * i for i, token in enumerate(tokens)}
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(
        token + " " + " ".join(map(repr, row.tolist())) + "\n" for token, row in rows.items()
    ))
    config_path.write_text(CONFIG_TEXT + f"embedding_file = {vectors}\n")
    return rows


def test_cli_train_starts_from_pretrained_rows(tmp_path, corpus_path, config_path, monkeypatch):
    rows = use_vectors(tmp_path, config_path)
    # without the optimizer step, the checkpoint holds the parameters training started from
    monkeypatch.setattr(training, "adam_step", lambda named, state, config, l2_weight: None)
    out_dir = tmp_path / "run"
    assert main(
        ["train", "--config", str(config_path), "--data", str(corpus_path), "--out", str(out_dir)]
    ) == 0

    config, vocab, params = load_checkpoint(out_dir / "checkpoint.npz")
    drawn = init_params(config, len(vocab), seed=3).tables
    word = params.tables.word.values
    in_file = [vocab.token_to_id[token] for token in ("pizza", "menu")]
    for token, i in zip(("pizza", "menu"), in_file):
        np.testing.assert_array_equal(word[i], rows[token])
    others = [i for i in range(len(vocab)) if i not in in_file]
    np.testing.assert_array_equal(word[others], drawn.word.values[others])
    np.testing.assert_array_equal(word[PAD_ID], np.zeros(6))
    np.testing.assert_array_equal(params.tables.position.values, drawn.position.values)


def test_cli_ablate_variants_start_from_the_rows_train_starts_from(tmp_path, corpus_path,
                                                                  config_path, monkeypatch):
    use_vectors(tmp_path, config_path)
    starts = []  # the word table at each run's first step
    real_step = training.step

    def recording_step(params, adam_state, *rest):
        if adam_state.step == 0:
            starts.append(params.tables.word.values.copy())
        return real_step(params, adam_state, *rest)

    monkeypatch.setattr(training, "step", recording_step)
    for command in ("train", "ablate"):
        assert main([command, "--config", str(config_path), "--data", str(corpus_path),
                     "--out", str(tmp_path / command)]) == 0
    assert len(starts) == 1 + 6
    for start in starts[1:]:
        np.testing.assert_array_equal(start, starts[0])


def test_cli_ablate_writes_one_row_per_variant(tmp_path, corpus_path, config_path):
    out_dir = tmp_path / "ablate"
    assert main(["ablate", "--config", str(config_path), "--data", str(corpus_path),
                 "--out", str(out_dir)]) == 0
    with open(out_dir / "ablation.csv", encoding="utf-8") as fh:
        parameters = {row["variant"]: int(row["parameters"]) for row in csv.DictReader(fh)}
    config = build_configs(parse_config_file(config_path))[0]
    assert list(parameters) == [name for name, _ in training.standard_ablation_grid(config)]
    # the position stage: a (2d x H) weight and a scalar bias per aspect
    position_stage = config.aspect_count * (2 * config.embedding_width * config.hidden_width + 1)
    assert parameters["full"] - parameters["no_position_attention"] == position_stage


def test_cli_missing_required_flag(capsys):
    status = main(["train", "--config", "x"])
    assert status == 1
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_flag(capsys):
    status = main(["train", "--config", "x", "--data", "y", "--out", "z", "--bogus"])
    assert status == 1


def test_cli_missing_data_file(tmp_path, config_path):
    status = main(
        ["train", "--config", str(config_path), "--data", str(tmp_path / "nope.jsonl"),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1


def test_cli_eval_and_explain_round_trip(tmp_path, corpus_path, config_path, capsys):
    out_dir = tmp_path / "run"
    assert main(
        ["train", "--config", str(config_path), "--data", str(corpus_path),
         "--out", str(out_dir)]
    ) == 0
    checkpoint = out_dir / "checkpoint.npz"

    eval_dir = tmp_path / "eval"
    assert main(
        ["eval", "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(eval_dir)]
    ) == 0
    assert (eval_dir / "metrics_eval.txt").exists()
    assert capsys.readouterr().err.count("dropped 0 of 24 reviews") == 2  # train, then eval

    one_review = write_jsonl(tmp_path / "one.jsonl", synthetic_reviews(1, seed=9))
    explain_dir = tmp_path / "explain"
    assert main(
        ["explain", "--checkpoint", str(checkpoint), "--data", str(one_review),
         "--out", str(explain_dir)]
    ) == 0
    heatmaps = sorted(explain_dir.glob("heatmap_*.html"))
    assert len(heatmaps) == 1
    assert (explain_dir / "ranking_001.txt").exists()  # named by the review's line

    # one ranking ships; the option that chose another is gone
    assert main(
        ["explain", "--checkpoint", str(checkpoint), "--data", str(one_review),
         "--out", str(tmp_path / "literal"), "--ranking-mode", "literal"]
    ) == 1
    assert "--ranking-mode" in capsys.readouterr().err
    assert not (tmp_path / "literal").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_rejects_old_format_checkpoint(tmp_path, corpus_path, command, capsys):
    config = ModelConfig(
        aspect_names=["food", "service"], embedding_width=6, cell_width=6, max_length=16,
    )
    tokens = ["<pad>", "<unk>", "pizza"]
    params = init_params(config, len(tokens), seed=0)
    meta = {
        "config": dict(
            aspect_names=config.aspect_names, embedding_width=6, cell_width=6,
            max_length=16, bidirectional=False, class_count=2,
            disable_self_orth=False, disable_pos_orth=False, disable_l2=False,
        ),
        "vocabulary": tokens,
    }
    checkpoint = tmp_path / "old.npz"
    with open(checkpoint, "wb") as fh:
        np.savez(
            fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            **{"param/" + name: t.values for name, t in params.named_tensors()},
        )
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    assert str(checkpoint) in capsys.readouterr().err


def write_current_checkpoint(path):
    config = ModelConfig(
        aspect_names=["food", "service"], embedding_width=6, cell_width=6, max_length=16,
    )
    tokens = ["<pad>", "<unk>", "pizza"]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens)
    save_checkpoint(path, config, vocab, init_params(config, len(tokens), seed=0))
    return path


def to_v2_meta(meta):
    meta["format_version"] = 2
    del meta["preprocess"]


def to_v2_per_gate_arrays(arrays):
    """Format 2 kept twelve tensors per LSTM direction, one w, u, b per gate."""
    for prefix in ("lstm_fwd", "lstm_bwd"):
        for part in "wub":
            fused = arrays.pop(f"param/{prefix}.{part}")
            blocks = np.split(fused, 4, axis=-1)
            for gate, block in zip(GATES, blocks):
                name = f"{gate}_gate_{part}" if gate != "candidate" else f"candidate_{part}"
                arrays[f"param/{prefix}.{name}"] = block


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_rejects_per_gate_v2_checkpoint(tmp_path, corpus_path, command, capsys):
    checkpoint = write_current_checkpoint(tmp_path / "v2.npz")
    rewrite_checkpoint(checkpoint, to_v2_meta, to_v2_per_gate_arrays)
    with pytest.raises(InputError, match="format version 2 is not 5"):
        load_checkpoint(checkpoint)
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    assert str(checkpoint) in capsys.readouterr().err


def to_v3_meta(meta):
    """Format 3 configs carried the encoder switch, always true in practice."""
    meta["format_version"] = 3
    meta["config"]["bidirectional"] = True


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_rejects_v3_checkpoint(tmp_path, corpus_path, command, capsys):
    checkpoint = write_current_checkpoint(tmp_path / "v3.npz")
    rewrite_checkpoint(checkpoint, to_v3_meta)
    with pytest.raises(InputError, match="format version 3 is not 5; retrain"):
        load_checkpoint(checkpoint)
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    assert str(checkpoint) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_mistyped_checkpoint_config_exits_1_naming_file(tmp_path, corpus_path, command,
                                                            capsys):
    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    rewrite_checkpoint(checkpoint, lambda meta: meta["config"].update(cell_width="6"))
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {checkpoint}: config: bad value for 'cell_width': '6'")
    assert not (tmp_path / "out").exists()


def to_v4_meta(meta):
    """Format 4 configs carried the rated-aspect cap, null unless set."""
    meta["format_version"] = 4
    meta["config"]["max_rated_aspects"] = None


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_rejects_v4_checkpoint(tmp_path, corpus_path, command, capsys):
    checkpoint = write_current_checkpoint(tmp_path / "v4.npz")
    rewrite_checkpoint(checkpoint, to_v4_meta)
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint {checkpoint}: format version 4 is not 5; retrain the model"
    )


# ModelConfig values that are out of range or of the wrong type, each as a
# config file line and as a checkpoint's JSON config value
BAD_MODEL_VALUES = [
    ("embedding_width", 0), ("cell_width", -2), ("max_length", 0),
    ("aspect_loss_weight", -0.5), ("self_orth_weight", -1.0), ("pos_orth_weight", -0.25),
    ("l2_weight", -0.01), ("l2_weight", "nan"), ("cell_width", "wide"),
    ("embedding_width", 2.5), ("max_length", "16x"), ("aspect_loss_weight", "half"),
    ("disable_position_attention", "maybe"), ("aspect_loss_weight", math.inf),
    ("self_orth_weight", math.inf), ("l2_weight", math.inf),
]


@pytest.mark.parametrize(
    "key, value", BAD_MODEL_VALUES, ids=[f"{k}-{v}" for k, v in BAD_MODEL_VALUES]
)
def test_bad_model_value_rejected_from_config_file_and_checkpoint(
    tmp_path, corpus_path, key, value, capsys
):
    config_path = tmp_path / "config.txt"
    config_path.write_text(f"aspects = food, service\n{key} = {value}\n")
    assert main(
        ["train", "--config", str(config_path), "--data", str(corpus_path),
         "--out", str(tmp_path / "run")]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config_path}: ")
    assert key in err and str(value) in err

    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    rewrite_checkpoint(checkpoint, lambda meta: meta["config"].update({key: value}))
    assert main(
        ["eval", "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {checkpoint}: config: ")
    assert key in err and str(value) in err


def test_configs_are_frozen_and_checked_when_made():
    for make in (
        lambda: ModelConfig(aspect_names=["food"], cell_width=0),
        lambda: ModelConfig(aspect_names=[]),
        lambda: TrainConfig(batch_size=0),
        lambda: DataSettings(aspects=["food"], min_count=0),
        lambda: DataSettings(domain="garage"),
    ):
        with pytest.raises(ValueError):
            make()
    for config in (ModelConfig(aspect_names=["food"]), TrainConfig(), DataSettings(aspects=["a"])):
        with pytest.raises(AttributeError):
            config.seed = 1


# (file kind, its bytes, the line they break): one byte that is not UTF-8 in
# each kind of text input, and a vector row of the wrong width
BAD_INPUT_FILES = {
    "corpus": (b'{"text": "tasty pizza", "overall": 4}\n{"text": "\xff", "overall": 4}\n', 2),
    "config": (CONFIG_TEXT.encode() + b"seed = 4\xff\n", CONFIG_TEXT.count("\n") + 1),
    "embeddings": (b"pizza 1 2 3 4 5 6\ntasty 1 2 3\xff 4 5 6\n", 2),
    "embeddings-width": (b"pizza 1 2 3 4 5 6\nfood 1 2 3\n", 2),
    "embeddings-nan": (b"tasty 1 2 3 4 5 6\npizza nan 0.1 0.1 0.1 0.1 0.1\n", 2),
    "embeddings-inf": (b"pizza 1 2 3 4 5 inf\n", 1),
}


@pytest.mark.parametrize("kind", BAD_INPUT_FILES)
def test_bad_input_file_exits_1_naming_file_and_line(tmp_path, corpus_path, config_path, kind,
                                                     capsys):
    content, line = BAD_INPUT_FILES[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    if kind == "corpus":
        corpus_path = bad
    elif kind == "config":
        config_path = bad
    else:
        config_path.write_text(CONFIG_TEXT + f"embedding_file = {bad}\n")
    status = main(
        ["train", "--config", str(config_path), "--data", str(corpus_path),
         "--out", str(tmp_path / "run")]
    )
    assert status == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: {kind.split('-')[0]} {bad}: line {line}: ")


# (the kind of input as its error names it, the command that opens it, what is
# wrong with its path): inputs that cannot be opened, and an --out that is a file
UNOPENABLE_INPUTS = [
    (kind, command, fault)
    for kind, command in [("config", "train"), ("corpus", "train"), ("embeddings", "train"),
                          ("embeddings", "ablate"), ("checkpoint", "eval"),
                          ("checkpoint", "explain")]
    for fault in ("missing", "directory")
] + [("out", command, "file") for command in ("train", "eval", "explain")]

INPUT_FLAGS = {"config": "--config", "corpus": "--data", "checkpoint": "--checkpoint",
               "out": "--out"}


@pytest.mark.parametrize(
    "kind, command, fault", UNOPENABLE_INPUTS, ids=["-".join(case) for case in UNOPENABLE_INPUTS]
)
def test_input_that_cannot_be_opened_exits_1_naming_it(tmp_path, corpus_path, config_path,
                                                       kind, command, fault, capsys):
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    elif fault == "file":
        bad.write_text("not a directory\n")
    paths = {"corpus": corpus_path, "out": tmp_path / "run"}
    if command in ("train", "ablate"):
        paths["config"] = config_path
    else:
        paths["checkpoint"] = write_current_checkpoint(tmp_path / "model.npz")
    if kind == "embeddings":
        config_path.write_text(CONFIG_TEXT + f"embedding_file = {bad}\n")
    else:
        paths[kind] = bad
    argv = [command]
    for name, path in paths.items():
        argv += [INPUT_FLAGS[name], str(path)]
    assert main(argv) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    reason = {"missing": "No such file or directory", "directory": "Is a directory"}.get(fault)
    if reason:
        assert last == f"error: {kind} {bad}: {reason}"
    else:
        assert last.startswith(f"error: {kind} {bad}: ")


def test_too_few_reviews_to_split_names_corpus(tmp_path, config_path, capsys):
    corpus = write_jsonl(tmp_path / "one.jsonl", synthetic_reviews(1, seed=9))
    status = main(
        ["train", "--config", str(config_path), "--data", str(corpus),
         "--out", str(tmp_path / "run")]
    )
    assert status == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: corpus {corpus}: need at least 5 examples to split, got 1"
    )


def truncate(path):
    path.write_bytes(path.read_bytes()[:200])


def save_one_array(path):
    """An .npy array in place of an .npz archive."""
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def set_meta_bytes(raw):
    """Replace the archive's meta record with raw bytes, or drop it given None."""
    def damage(path):
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files if key != "meta"}
        if raw is not None:
            arrays["meta"] = np.frombuffer(raw, dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return damage


def set_vocabulary(tokens):
    return lambda path: rewrite_checkpoint(path, lambda meta: meta.update(vocabulary=tokens))


def set_parameter(name, make):
    """Replace one parameter array with ``make(its array)``."""
    def edit(arrays):
        arrays["param/" + name] = make(arrays["param/" + name])
    return lambda path: rewrite_checkpoint(path, edit_arrays=edit)


MALFORMED_CHECKPOINTS = {
    "not-an-archive": lambda path: path.write_text("just some text\n"),
    "empty": lambda path: path.write_bytes(b""),
    "one-array": save_one_array,
    "truncated": truncate,
    "no-meta": set_meta_bytes(None),
    "meta-not-utf8": set_meta_bytes(b"\xff{"),
    "meta-not-object": set_meta_bytes(b"[]"),
    "no-config": lambda path: rewrite_checkpoint(path, lambda meta: meta.pop("config")),
    "no-vocabulary": lambda path: rewrite_checkpoint(path, lambda meta: meta.pop("vocabulary")),
    "vocabulary-int": set_vocabulary(5),
    "vocabulary-null": set_vocabulary(None),
    "vocabulary-non-string-token": set_vocabulary(["<pad>", "<unk>", 7]),
    "vocabulary-repeated-token": set_vocabulary(["<pad>", "<unk>", "<unk>"]),
    "vocabulary-no-reserved-tokens": set_vocabulary(["pizza", "<pad>", "<unk>"]),
    "preprocess-list": lambda path: rewrite_checkpoint(
        path, lambda meta: meta.update(preprocess=[])
    ),
    "parameter-strings": set_parameter("aspect_head.0.weight", lambda a: np.full(a.shape, "x")),
    "parameter-nan": set_parameter("overall_head.bias", lambda a: np.array([0.0, np.nan])),
}
# the parameter that a damage's error must name
DAMAGED_PARAMETER = {
    "parameter-strings": "aspect_head.0.weight", "parameter-nan": "overall_head.bias",
}


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("damage", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_exits_1_naming_file(tmp_path, corpus_path, damage, command, capsys):
    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    MALFORMED_CHECKPOINTS[damage](checkpoint)
    with pytest.raises(InputError, match=re.escape(f"checkpoint {checkpoint}: ")):
        load_checkpoint(checkpoint)
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {checkpoint}: ")
    if damage in DAMAGED_PARAMETER:
        assert f"parameter {DAMAGED_PARAMETER[damage]} " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("key, other", [("min_tokens", 4), ("stop_words_sha256", "0" * 64)])
def test_cli_rejects_other_preprocessing(tmp_path, corpus_path, key, other, command, capsys):
    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    rewrite_checkpoint(checkpoint, edit_meta=lambda meta: meta["preprocess"].update({key: other}))
    status = main(
        [command, "--checkpoint", str(checkpoint), "--data", str(corpus_path),
         "--out", str(tmp_path / "out")]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err
    assert f"preprocessing {key} {other!r}" in err
    assert not (tmp_path / "out").exists()


def make_report(intensities, scores=None):
    intensities = np.asarray(intensities, dtype=np.float64)
    k, t = intensities.shape
    scores = scores or [1.0] * k
    ranking = sorted(enumerate(scores), key=lambda kv: (-kv[1], kv[0]))
    return HeatmapReport(
        tokens=[f"tok{j}" for j in range(t)],
        aspect_names=[f"aspect{i}" for i in range(k)],
        intensities=intensities,
        ranking=ranking,
        aspect_predictions=[1] * k,
        overall_prediction=0,
    )


def test_render_uniform_intensities_equal_shades():
    html = render_heatmap(make_report([[0.5, 0.5, 0.5]]))
    shades = [part.split("'")[0] for part in html.split("background:hsl")[1:]]
    assert len(set(shades)) == 1


def test_render_dominant_token_darkest():
    html = render_heatmap(make_report([[0.1, 0.8, 0.1]]))
    import re

    lightness = [int(m) for m in re.findall(r"hsl\(0, 0%, (\d+)%\)", html)]
    assert min(lightness) == lightness[1]
    assert lightness[1] < lightness[0]


def test_render_marks_top_ranked_aspect():
    html = render_heatmap(make_report([[0.5, 0.5], [0.5, 0.5]], scores=[1.0, 2.0]))
    rows = [line for line in html.splitlines() if line.startswith("<tr")]
    assert "class='top'" in rows[1 + 1]  # header row, then aspect rows
    assert "#9733" in rows[2]


def test_render_is_pure_function_of_report():
    report = make_report([[0.2, 0.7], [0.4, 0.3]], scores=[1.5, 0.5])
    assert render_heatmap(report) == render_heatmap(report)


def test_render_every_token_once_per_aspect_row():
    report = make_report([[0.2, 0.7, 0.1], [0.4, 0.3, 0.3]])
    html = render_heatmap(report)
    for token in report.tokens:
        assert html.count(f">{token}</td>") == len(report.aspect_names)


def test_report_intensity_rows_sum_to_two():
    split, vocab, config = synthetic_split(n=20, seed=5)
    params = init_params(config, len(vocab), seed=0)
    ex = split.train[0]
    output = forward(ex, params, config)
    report = build_report(ex.tokens, output, config.aspect_names, "magnitude")
    sums = report.intensities.sum(axis=1)
    np.testing.assert_allclose(sums, np.full(config.aspect_count, 2.0), atol=1e-6)


def test_render_escapes_aspect_names_and_tokens():
    report = make_report([[0.5, 0.5]])
    report.aspect_names = ['<b>&"']
    report.tokens = ["<i>", "a&b"]
    html = render_heatmap(report)
    assert "&lt;b&gt;&amp;&quot;" in html
    assert "&lt;i&gt;" in html and "a&amp;b" in html
    assert '<b>&"' not in html and "<i>" not in html


def test_explain_names_outputs_by_source_line(tmp_path, config_path, capsys):
    # line 1 keeps one token and is dropped, line 2 is blank, line 3 is explained
    corpus = tmp_path / "reviews.jsonl"
    (review,) = synthetic_reviews(1, seed=9)
    corpus.write_text(
        json.dumps({"text": "pizza", "overall": 4}) + "\n\n"
        + json.dumps({"text": review.text, "overall": review.overall_rating}) + "\n"
    )
    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    out_dir = tmp_path / "explain"
    assert main(
        ["explain", "--checkpoint", str(checkpoint), "--data", str(corpus),
         "--out", str(out_dir)]
    ) == 0
    assert "dropped 1 of 2 reviews" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["heatmap_003.html", "ranking_003.txt"]
    html = (out_dir / "heatmap_003.html").read_text()
    for token in preprocess(RawReview(review.text, 4, []), PreprocessRules.default()).tokens:
        assert f">{token}</td>" in html


def test_eval_of_a_corpus_whose_reviews_are_all_dropped_reports_zero_support(tmp_path, capsys):
    corpus = tmp_path / "reviews.jsonl"
    corpus.write_text(json.dumps({"text": "pizza", "overall": 4}) + "\n")
    checkpoint = write_current_checkpoint(tmp_path / "model.npz")
    out_dir = tmp_path / "eval"
    assert main(
        ["eval", "--checkpoint", str(checkpoint), "--data", str(corpus), "--out", str(out_dir)]
    ) == 0
    assert "dropped 1 of 1 reviews" in capsys.readouterr().err
    metrics = (out_dir / "metrics_eval.txt").read_text()
    assert "overall.support = 0\n" in metrics
    assert "aspect.food.support = 0\n" in metrics
