import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectsent import autodiff as ad
from aspectsent.autodiff import NumericError, Tensor
from aspectsent.data import DatasetSplit
from aspectsent.model import ModelConfig, init_params
from aspectsent.training import (
    AdamState,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    run_ablation,
    sgd_step,
    standard_ablation_grid,
    train,
)
from tests.corpus import synthetic_split, tiny_model_config


def test_adam_first_step_is_signed_learning_rate():
    p = ad.parameter(np.array([1.0, -2.0]), "p")
    p.grad = np.array([0.5, -3.0])
    config = TrainConfig(learning_rate=0.1)
    adam_step([("p", p)], AdamState(), config)
    np.testing.assert_allclose(p.values, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)


def test_adam_zero_gradient_keeps_parameters():
    p = ad.parameter(np.array([1.0, 2.0]), "p")
    adam_step([("p", p)], AdamState(), TrainConfig())
    np.testing.assert_array_equal(p.values, [1.0, 2.0])


def test_adam_minimizes_quadratic():
    p = ad.parameter(np.array(0.0), "x")
    state = AdamState()
    config = TrainConfig(learning_rate=0.1)
    for _ in range(100):
        p.grad = np.asarray(2.0 * (p.values - 3.0))
        adam_step([("x", p)], state, config)
    assert abs(float(p.values) - 3.0) < 0.1


def test_adam_aborts_on_nonfinite_gradient():
    p = ad.parameter(np.array([1.0]), "embedding.weight")
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="embedding.weight"):
        adam_step([("embedding.weight", p)], AdamState(), TrainConfig())


def test_sgd_step_hand_case():
    p = ad.parameter(np.array(5.0), "p")
    p.grad = np.asarray(2.0)
    sgd_step([("p", p)], TrainConfig(optimizer="sgd", learning_rate=1.0))
    assert float(p.values) == 3.0


def test_sgd_zero_gradient_no_change():
    p = ad.parameter(np.array([1.5]), "p")
    sgd_step([("p", p)], TrainConfig(optimizer="sgd"))
    np.testing.assert_array_equal(p.values, [1.5])


def test_sgd_matches_closed_form_on_quadratic():
    # minimizing a(x - c)^2: x_{t+1} = x_t - lr * 2a (x_t - c)
    # => (x_t - c) decays geometrically by (1 - 2 a lr)
    a, c, lr, steps = 1.5, 2.0, 0.1, 7
    p = ad.parameter(np.array(0.0), "x")
    config = TrainConfig(optimizer="sgd", learning_rate=lr)
    for _ in range(steps):
        p.grad = np.asarray(2 * a * (float(p.values) - c))
        sgd_step([("x", p)], config)
    expected = c + (0.0 - c) * (1 - 2 * a * lr) ** steps
    assert abs(float(p.values) - expected) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=0.25, max_value=3).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)
def test_one_step_decreases_convex_quadratic(curvature, start):
    # adam's first step has size ~lr regardless of gradient magnitude, so the
    # start must sit further than lr/2 from the optimum for a guaranteed drop
    lr = 0.1 / curvature
    for opt in ("sgd", "adam"):
        p = ad.parameter(np.array(start), "x")
        grad = 2 * curvature * start
        p.grad = np.asarray(grad)
        config = TrainConfig(optimizer=opt, learning_rate=lr)
        if opt == "sgd":
            sgd_step([("x", p)], config)
        else:
            adam_step([("x", p)], AdamState(), config)
        assert curvature * float(p.values) ** 2 < curvature * start**2


def test_compute_metrics_all_correct():
    m = compute_metrics([0, 1, 1, 0], [0, 1, 1, 0])
    assert m.accuracy == 1.0 and m.macro_f1 == 1.0


def test_compute_metrics_hand_confusion():
    # two correct negatives, one false positive, one false negative, two true positives
    y_true = [0, 0, 0, 1, 1, 1]
    y_pred = [0, 0, 1, 0, 1, 1]
    m = compute_metrics(y_true, y_pred)
    np.testing.assert_array_equal(m.confusion, [[2, 1], [1, 2]])
    assert abs(m.accuracy - 4 / 6) < 1e-12
    for cls in (0, 1):
        assert abs(m.per_class[cls].f1 - 2 / 3) < 1e-12
    assert abs(m.macro_f1 - 2 / 3) < 1e-12


def test_compute_metrics_degenerate_single_class():
    m = compute_metrics([0, 0, 1, 1], [0, 0, 0, 0])
    assert m.per_class[1].f1 == 0.0
    assert m.macro_f1 == m.per_class[0].f1 / 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_metrics_match_brute_force(pairs):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    m = compute_metrics(y_true, y_pred)
    tp = sum(1 for t, p in pairs if t == 1 and p == 1)
    tn = sum(1 for t, p in pairs if t == 0 and p == 0)
    fp = sum(1 for t, p in pairs if t == 0 and p == 1)
    fn = sum(1 for t, p in pairs if t == 1 and p == 0)
    assert m.accuracy == ((tp + tn) / len(pairs) if pairs else 0.0)
    prec_pos = tp / (tp + fp) if tp + fp else 0.0
    rec_pos = tp / (tp + fn) if tp + fn else 0.0
    f1_pos = 2 * prec_pos * rec_pos / (prec_pos + rec_pos) if prec_pos + rec_pos else 0.0
    assert m.per_class[1].f1 == f1_pos


@pytest.fixture(scope="module")
def small_run():
    split, vocab, config = synthetic_split(n=40, seed=0)
    train_config = TrainConfig(epochs=3, batch_size=8, seed=1, patience=10)
    params = init_params(config, len(vocab), seed=1)
    result = train(params, config, train_config, split)
    return split, vocab, config, train_config, result


def test_train_epoch_log_length(small_run):
    _, _, _, train_config, result = small_run
    assert len(result.log) == train_config.epochs


def test_train_is_deterministic(small_run):
    split, vocab, config, train_config, result = small_run
    params = init_params(config, len(vocab), seed=1)
    repeat = train(params, config, train_config, split)
    assert repeat.best_epoch == result.best_epoch
    for a, b in zip(repeat.log, result.log):
        assert a.mean_loss == b.mean_loss
        assert a.validation.overall.macro_f1 == b.validation.overall.macro_f1


def test_train_returns_best_validation_checkpoint(small_run):
    split, _, config, _, result = small_run
    best_logged = max(r.validation.overall.macro_f1 for r in result.log)
    assert result.best_macro_f1 == best_logged
    report = evaluate(result.params, config, split.validation)
    assert report.overall.macro_f1 == best_logged


def test_padding_row_never_updated(small_run):
    _, _, _, _, result = small_run
    np.testing.assert_array_equal(
        result.params.tables.word.values[0], np.zeros(result.params.tables.width)
    )


def test_evaluate_skips_absent_aspect_labels():
    split, vocab, config = synthetic_split(n=20, seed=3, unrated_fraction=0.5)
    params = init_params(config, len(vocab), seed=0)
    report = evaluate(params, config, split.train)
    rated = sum(
        1 for ex in split.train for lbl in [ex.aspect_labels[0]] if lbl is not None
    )
    assert report.aspects[0].support == rated


def test_ablation_grid_shape_and_flags():
    base = tiny_model_config()
    grid = standard_ablation_grid(base)
    assert len(grid) == 6
    names = [name for name, _ in grid]
    assert names[0] == "full" and "no_l2" in names
    by_name = dict(grid)
    assert by_name["no_l2"].l2_weight == 0
    assert by_name["no_position_attention"].disable_position_attention


def test_run_ablation_emits_one_row_per_variant():
    split, vocab, config = synthetic_split(n=20, seed=4)
    train_config = TrainConfig(epochs=1, batch_size=8, seed=2, patience=5)
    rows = run_ablation(standard_ablation_grid(config), split, train_config, len(vocab))
    assert len(rows) == 6
    by_name = {row.name: row for row in rows}
    d2 = 2 * config.embedding_width
    drop = config.aspect_count * (d2 * config.hidden_width + 1)
    assert by_name["full"].parameter_count - by_name["no_position_attention"].parameter_count == drop
