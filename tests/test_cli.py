import json
from dataclasses import fields

import numpy as np
import pytest

from aspectsent.cli import ConfigError, build_configs, main, parse_config_file
from aspectsent.heatmap import HeatmapReport, build_report, render_heatmap
from aspectsent.model import ModelConfig, forward, init_params
from aspectsent.training import TrainConfig
from tests.corpus import synthetic_reviews, synthetic_split, tiny_model_config, write_jsonl

CONFIG_TEXT = """
# synthetic two-aspect setup
aspects = food, service
embedding_width = 6
cell_width = 6
max_length = 16
bidirectional = false
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
    assert model_config.bidirectional is False
    assert train_config.epochs == 2
    assert train_config.seed == 3


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects = a, b\nmystery_knob = 3\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        build_configs(parse_config_file(path))


def test_config_requires_domain_or_aspects(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("epochs = 2\n")
    with pytest.raises(ConfigError):
        build_configs(parse_config_file(path))


def test_config_domain_lookup(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("domain = restaurant\n")
    model_config, _, _ = build_configs(parse_config_file(path))
    assert model_config.aspect_names == ["Food", "Service", "Value", "Atmosphere"]


def test_config_bad_boolean(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects = a, b\nbidirectional = maybe\n")
    with pytest.raises(ConfigError):
        build_configs(parse_config_file(path))


# a valid non-default value per config key, as written and as parsed
CONFIG_SAMPLES = {
    "embedding_width": ("5", 5),
    "cell_width": ("7", 7),
    "max_length": ("12", 12),
    "bidirectional": ("false", False),
    "max_rated_aspects": ("1", 1),
    "aspect_loss_weight": ("0.25", 0.25),
    "self_orth_weight": ("0", 0.0),
    "pos_orth_weight": ("1.5", 1.5),
    "l2_weight": ("0.002", 0.002),
    "disable_position_attention": ("yes", True),
    "optimizer": ("sgd", "sgd"),
    "learning_rate": ("0.02", 0.02),
    "beta1": ("0.8", 0.8),
    "beta2": ("0.99", 0.99),
    "eps": ("1e-7", 1e-7),
    "epochs": ("3", 3),
    "batch_size": ("4", 4),
    "seed": ("11", 11),
    "patience": ("2", 2),
}


@pytest.mark.parametrize(
    "key",
    [f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls) if f.name != "aspect_names"],
)
def test_every_config_key_parses_to_its_field_type(tmp_path, key):
    raw, expected = CONFIG_SAMPLES[key]
    path = tmp_path / "config.txt"
    path.write_text(f"aspects = a, b\n{key} = {raw}\n")
    model_config, train_config, _ = build_configs(parse_config_file(path))
    config = model_config if hasattr(model_config, key) else train_config
    value = getattr(config, key)
    assert value == expected
    assert type(value) is type(expected)


@pytest.mark.parametrize("key", ["disable_l2", "class_count", "stop_train_accuracy"])
def test_removed_config_keys_rejected(tmp_path, corpus_path, key, capsys):
    path = tmp_path / "config.txt"
    path.write_text(CONFIG_TEXT + f"{key} = 1\n")
    status = main(
        ["train", "--config", str(path), "--data", str(corpus_path),
         "--out", str(tmp_path / "run")]
    )
    assert status == 1
    assert key in capsys.readouterr().err


def test_config_malformed_line(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("aspects a, b\n")
    with pytest.raises(ConfigError, match="line 1"):
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


def test_cli_eval_and_explain_round_trip(tmp_path, corpus_path, config_path):
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

    one_review = write_jsonl(tmp_path / "one.jsonl", synthetic_reviews(1, seed=9))
    explain_dir = tmp_path / "explain"
    assert main(
        ["explain", "--checkpoint", str(checkpoint), "--data", str(one_review),
         "--out", str(explain_dir), "--ranking-mode", "magnitude"]
    ) == 0
    heatmaps = sorted(explain_dir.glob("heatmap_*.html"))
    assert len(heatmaps) == 1
    assert (explain_dir / "ranking_000.txt").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_cli_rejects_old_format_checkpoint(tmp_path, corpus_path, command, capsys):
    config = ModelConfig(
        aspect_names=["food", "service"], embedding_width=6, cell_width=6,
        max_length=16, bidirectional=False,
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


def make_report(intensities, scores=None):
    intensities = np.asarray(intensities, dtype=np.float64)
    k, t = intensities.shape
    scores = scores or [1.0] * k
    ranking = sorted(enumerate(scores), key=lambda kv: (-kv[1], kv[0]))
    return HeatmapReport(
        tokens=[f"tok{j}" for j in range(t)],
        aspect_names=[f"aspect{i}" for i in range(k)],
        intensities=intensities,
        scores=list(scores),
        ranking=ranking,
        aspect_predictions=[1] * k,
        overall_prediction=0,
        ranking_mode="magnitude",
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
    report = build_report(ex.tokens, output, config.aspect_names, "literal")
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
