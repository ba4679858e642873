from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectsent import autodiff as ad
from aspectsent import model, training
from aspectsent.autodiff import NumericError, Tape, Tensor, backward
from aspectsent.attention import position_aware_attention, self_attention
from aspectsent.data import DOMAIN_ASPECTS, DatasetSplit, ProcessedExample, batch_iter, collate
from aspectsent.embeddings import PAD_ID, embed_sequence, mean_embedding
from aspectsent.model import L2_EXEMPT, ModelConfig, combined_loss, forward, init_params
from aspectsent.recurrent import bilstm_forward
from aspectsent.training import (
    AdamState,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    standard_ablation_grid,
    step,
    train,
)
from tests.corpus import synthetic_split, tiny_model_config
from tests.gradcheck import dense_grad, mul
from tests.test_autodiff import oracle_sum_of_squares


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
    for l2_weight in (0.0, 0.01):  # the decay joins the gradient before the check
        p = ad.parameter(np.array([1.0]), "embedding.weight")
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="embedding.weight"):
            adam_step([("embedding.weight", p)], AdamState(), TrainConfig(), l2_weight)

    # a bad entry late in a dense or decayed gradient: the table and both of
    # its moments keep the values the step before left
    rng = np.random.default_rng(2)
    for bad, l2_weight in ((np.nan, 0.0), (np.inf, 0.0), (np.inf, 0.01)):
        table = ad.parameter(rng.normal(size=(9000, 30)), "table")  # in the L2 term's scope
        state = AdamState()
        table.grad = rng.normal(size=table.values.shape)
        adam_step([("table", table)], state, TrainConfig(), l2_weight)
        before = [a.copy() for a in (table.values, state.first["table"], state.second["table"])]
        table.grad = np.ones(table.values.shape)
        table.grad[8000, 7] = bad
        with pytest.raises(NumericError, match="table"):
            adam_step([("table", table)], state, TrainConfig(), l2_weight)
        for old, new in zip(before, (table.values, state.first["table"], state.second["table"])):
            assert np.array_equal(new, old)


@pytest.mark.parametrize("shape", [
    (661, 300),  # a paper-width matrix
    (131_075,),
    (),
])
@pytest.mark.parametrize("has_grad", [True, False])
def test_adam_decay_equals_the_gradient_it_adds(shape, has_grad):
    """A step with ``l2_weight`` is, to the bit, a step without it given the
    gradient ``g + 2 * l2_weight * p``, or ``2 * l2_weight * p`` without a
    gradient buffer; over three steps, so the moments carry the decay too."""
    rng = np.random.default_rng(17)
    lam = 0.37
    start = np.asarray(rng.normal(size=shape))
    decayed, oracle = ad.parameter(start.copy(), "p"), ad.parameter(start.copy(), "p")
    states = AdamState(), AdamState()
    for _ in range(3):
        g = np.asarray(rng.normal(size=shape)) if has_grad else None
        decayed.grad = g
        oracle.grad = 2 * lam * oracle.values if g is None else g + 2 * lam * oracle.values
        adam_step([("p", decayed)], states[0], TrainConfig(), l2_weight=lam)
        adam_step([("p", oracle)], states[1], TrainConfig())
        assert decayed.values.shape == shape
        assert np.array_equal(decayed.values, oracle.values)
        assert np.array_equal(states[0].first["p"], states[1].first["p"])
        assert np.array_equal(states[0].second["p"], states[1].second["p"])


def reference_adam_step(named_params, first, second, t, config):
    """Adam as the plain out-of-place formula; the in-place step must match it."""
    for name, p in named_params:
        g = p.grad
        m = first.get(name, np.zeros_like(p.values))
        v = second.get(name, np.zeros_like(p.values))
        m = training.BETA1 * m + (1 - training.BETA1) * g
        v = training.BETA2 * v + (1 - training.BETA2) * g * g
        first[name], second[name] = m, v
        m_hat = m / (1 - training.BETA1**t)
        v_hat = v / (1 - training.BETA2**t)
        p.values = p.values - config.learning_rate * m_hat / (np.sqrt(v_hat) + training.EPS)


def test_adam_step_is_bit_identical_to_formula():
    rng = np.random.default_rng(11)
    shapes = {"table": (5000, 30), "vector": (16,), "bias": ()}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    start["bias"] = np.asarray(start["bias"])
    live = [(name, ad.parameter(values.copy(), name)) for name, values in start.items()]
    ref = [(name, ad.parameter(values.copy(), name)) for name, values in start.items()]
    state, first, second = AdamState(), {}, {}
    config = TrainConfig(learning_rate=0.03)
    for t in (1, 2, 3):
        for (name, p), (_, q) in zip(live, ref):
            p.grad = rng.normal(size=shapes[name])
            q.grad = p.grad.copy()
        adam_step(live, state, config)
        reference_adam_step(ref, first, second, t, config)
        for (name, p), (_, q) in zip(live, ref):
            assert p.values.shape == shapes[name]
            assert np.array_equal(p.values, q.values), name
            assert np.array_equal(state.first[name], first[name]), name
            assert np.array_equal(state.second[name], second[name]), name
    assert state.step == 3


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
    p = ad.parameter(np.array(start), "x")
    p.grad = np.asarray(2 * curvature * start)
    adam_step([("x", p)], AdamState(), TrainConfig(learning_rate=lr))
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


@pytest.mark.parametrize(
    "scores, patience, best, copies",
    [
        ([0.5, 0.9, 0.6, 0.7], 10, 1, 2),
        ([0.5, 0.6, 0.7, 0.9], 10, 3, 3),  # the last epoch's parameters are never copied
        ([0.9, 0.5, 0.6, 0.7], 2, 0, 1),  # stops early, after epoch 2
        ([0.9], 10, 0, 0),
    ],
)
def test_train_returns_params_of_best_epoch(scores, patience, best, copies, monkeypatch):
    split, vocab, config = synthetic_split(n=20, seed=6)
    seen = []

    def scripted_evaluate(params, config, examples):
        seen.append({name: t.values.copy() for name, t in params.named_tensors()})
        report = evaluate(params, config, examples)
        report.overall.macro_f1 = scores[len(seen) - 1]
        return report

    snapshots = []
    real_snapshot = training._snapshot
    monkeypatch.setattr(training, "evaluate", scripted_evaluate)
    monkeypatch.setattr(training, "_snapshot", lambda p: snapshots.append(p) or real_snapshot(p))
    params = init_params(config, len(vocab), seed=0)
    train_config = TrainConfig(epochs=len(scores), batch_size=8, seed=0, patience=patience)
    result = train(params, config, train_config, split)
    assert result.best_epoch == best
    assert len(result.log) == min(len(scores), best + patience + 1)
    assert len(snapshots) == copies
    for name, t in result.params.named_tensors():
        assert np.array_equal(t.values, seen[best][name]), name


def test_padding_row_never_updated(small_run):
    _, _, _, _, result = small_run
    np.testing.assert_array_equal(
        result.params.tables.word.values[0], np.zeros(result.params.tables.width)
    )


def test_evaluate_skips_absent_aspect_labels():
    split, vocab, config = synthetic_split(n=20, seed=3, unrated_fraction=0.5)
    params = init_params(config, len(vocab), seed=0)
    report = evaluate(params, config, split.train)
    rated = sum(1 for ex in split.train if ex.aspect_labels[0] >= 0)
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


def composed_l2(params):
    """The L2 term as a chain of per-tensor ops, as each example once built it,
    over the parameters in its scope."""
    l2 = None
    for name, tensor in params.named_tensors():
        if name in L2_EXEMPT:
            continue
        term = ad.reduce_sum(mul(tensor, tensor))
        l2 = term if l2 is None else ad.add(l2, term)
    return l2


def test_batch_gradient_matches_per_example_l2_oracle(monkeypatch):
    """One padded batch against the per-example sum. The gradients that reach
    the optimizer are the data terms' alone, and the optimizer is asked for
    the configured L2 weight; the logged loss adds the L2 term once."""
    split, vocab, config = synthetic_split(n=30, seed=5)
    assert config.l2_weight > 0
    train_config = TrainConfig(epochs=1, batch_size=8, seed=4)
    one_batch = DatasetSplit(split.train[:8], split.validation, [], seed=5)

    captured = {}

    def capture(named, state, config, l2_weight):
        captured["l2_weight"] = l2_weight
        captured.update((name, dense_grad(t)) for name, t in named if t.grad is not None)

    monkeypatch.setattr(training, "adam_step", capture)
    params = init_params(config, len(vocab), seed=2)
    result = train(params, config, train_config, one_batch)

    oracle = init_params(config, len(vocab), seed=2)
    (batch,) = batch_iter(one_batch.train, train_config.batch_size,
                          np.random.default_rng(train_config.seed))
    with Tape():
        total = None
        for ex in batch:
            out = forward(ex, oracle, config)
            loss, _ = combined_loss(out, ex, oracle, config)
            total = loss if total is None else ad.add(total, loss)
        batch_loss = mul(total, Tensor(1.0 / len(batch)))
        backward(batch_loss)

    # the same terms, summed in another order
    expected_loss = batch_loss.item() + config.l2_weight * composed_l2(oracle).item()
    assert abs(result.log[0].mean_loss - expected_loss) <= 1e-14 * abs(expected_loss)
    assert captured.pop("l2_weight") == config.l2_weight
    expected = {name: dense_grad(t) for name, t in oracle.named_tensors() if t.grad is not None}
    assert captured.keys() == expected.keys()
    assert np.all(captured["word_table"][PAD_ID] == 0.0)
    for name, grad in expected.items():
        # an attention bias's gradient is a sum that cancels by construction, so its
        # rounding follows the terms summed: those of the same stage's weight gradient
        own = expected[name[:-1] + "w"] if name.endswith("_attn_b") else grad
        scale = max(np.max(np.abs(own)), 1e-300)
        assert np.max(np.abs(captured[name] - grad)) <= 1e-12 * scale, name


def test_streamed_l2_trains_bit_identically_to_the_oracle(monkeypatch):
    """Three epochs at the default config: every parameter equals, to the bit,
    a run that records the L2 term on the tape, before the forward pass so
    that its backward adds 2 * l2_weight * p after every data gradient, and
    steps Adam without decay; each epoch's mean loss moves only by the
    rounding of the L2 value."""
    split, vocab, config = synthetic_split(n=300, seed=0)
    assert config.l2_weight > 0
    params = init_params(config, len(vocab), seed=0)
    decayed = train(params, config, TrainConfig(epochs=3), split)

    latest = {}

    def forward_after_l2(record, params, config):
        latest["l2"] = oracle_sum_of_squares(
            [t for name, t in params.named_tensors() if name not in L2_EXEMPT])
        return forward(record, params, config)

    def loss_with_l2(output, record, params, config):
        total, breakdown = combined_loss(output, record, params, config)
        total = ad.add(total, mul(latest["l2"], Tensor(config.l2_weight)))
        return total, replace(breakdown, total=total.item())

    monkeypatch.setattr(training, "forward", forward_after_l2)
    monkeypatch.setattr(training, "combined_loss", loss_with_l2)
    monkeypatch.setattr(model, "l2_penalty", lambda params: 0.0)  # already in the loss
    monkeypatch.setattr(training, "adam_step", lambda named, state, config, l2_weight:
                        adam_step(named, state, config, l2_weight=0))
    params = init_params(config, len(vocab), seed=0)
    oracle = train(params, config, TrainConfig(epochs=3), split)

    assert len(decayed.log) == len(oracle.log) == 3
    for ours, theirs in zip(decayed.log, oracle.log):
        assert abs(ours.mean_loss - theirs.mean_loss) <= 1e-14 * abs(theirs.mean_loss)
    for (name, ours), (_, theirs) in zip(decayed.params.named_tensors(),
                                         oracle.params.named_tensors()):
        assert np.array_equal(ours.values, theirs.values), name


@pytest.mark.parametrize("split_seed", [0, 3])
def test_learns_the_synthetic_corpus_without_l2(split_seed):
    # the configuration that learns today; the defaults do not (see ROADMAP)
    split, vocab, config = synthetic_split(
        n=300, seed=split_seed, config=tiny_model_config(l2_weight=0.0)
    )
    params = init_params(config, len(vocab), seed=0)
    result = train(params, config, TrainConfig(learning_rate=0.01, epochs=15, patience=15), split)
    report = evaluate(result.params, config, split.test)
    assert report.overall.macro_f1 >= 0.9
    for k, metrics in enumerate(report.aspects):
        labels = [ex.aspect_labels[k] for ex in split.test]
        majority = max(labels.count(0), labels.count(1)) / len(labels)
        assert metrics.accuracy >= majority + 0.05, (k, metrics.accuracy, majority)


def test_training_step_records_one_forward_loss_and_backward(monkeypatch):
    """A step on a padded record: one forward pass, one loss and one backward
    pass, whose tape does not grow with the batch size."""
    split, vocab, config = synthetic_split(n=40, seed=7)
    calls = {"forward": [], "combined_loss": 0, "backward": []}

    def counting(name, fn):
        def run(*args, **kwargs):
            if name == "forward":
                calls[name].append(np.shape(args[0].token_ids))
            elif name == "backward":
                calls[name].append(len(args[0].tape))
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for name in calls:
        monkeypatch.setattr(training, name, counting(name, getattr(training, name)))
    params = init_params(config, len(vocab), seed=0)
    state = AdamState()
    for batch in (split.train[:8], split.train[8:10]):
        step(params, state, collate(batch), config, TrainConfig())
    assert [shape[0] for shape in calls["forward"]] == [8, 2]
    assert calls["combined_loss"] == 2
    assert len(calls["backward"]) == 2 and calls["backward"][0] == calls["backward"][1]
    assert state.step == 2
    assert all(t.grad is None for t in params.tensors())


def test_train_runs_one_step_per_batch(monkeypatch):
    split, vocab, config = synthetic_split(n=40, seed=7)
    sizes = []
    real_step = training.step
    monkeypatch.setattr(training, "step", lambda params, state, record, *configs:
                        sizes.append(len(record.token_ids)) or real_step(params, state, record,
                                                                          *configs))
    no_validation = DatasetSplit(split.train[:10], [], [], seed=7)
    params = init_params(config, len(vocab), seed=0)
    train(params, config, TrainConfig(epochs=2, batch_size=8, seed=0), no_validation)
    assert sizes == [8, 2, 8, 2]


def test_training_step_records_only_the_model_ops(monkeypatch):
    """One batch step, the four restaurant aspects each rated by some row and
    every loss term on, records 4 + 2K ops in the forward and 5 + 2K in the
    step (12 and 13 at K=4), each from one of the model's own ops and none
    from the engine; the L2 term records none. Without the position stage,
    no mean embedding and one op per aspect: 3 + K and 4 + K (7 and 8)."""
    aspects = list(DOMAIN_ASPECTS["restaurant"])
    rng = np.random.default_rng(8)
    examples = [
        ProcessedExample(rng.integers(2, 20, size=n), np.ones(n, dtype=bool), n % 2,
                         np.array(labels), ["t"] * n)
        for n, labels in ((7, [1, 0, -1, 1]), (5, [0, -1, 1, 0]), (9, [-1, 1, 0, 1]))
    ]
    K = len(aspects)
    assert K == 4
    forward_ops, ops = [], []

    def counted_forward(*args):
        out = forward(*args)
        forward_ops.append(len(ad.active_tape()))
        return out

    monkeypatch.setattr(training, "forward", counted_forward)
    monkeypatch.setattr(training, "backward",
                        lambda root: ops.extend(root.tape.ops) or backward(root))
    own = [embed_sequence, bilstm_forward, self_attention, model.heads, model.combined_loss]
    for disabled, n_forward, specific in ((False, 4 + 2 * K, [mean_embedding,
                                                              position_aware_attention]),
                                          (True, 3 + K, [])):
        config = ModelConfig(aspect_names=aspects, embedding_width=6, cell_width=5,
                             max_length=16, disable_position_attention=disabled)
        forward_ops.clear()
        ops.clear()
        params = init_params(config, vocab_size=20, seed=0)
        step(params, AdamState(), collate(examples), config, TrainConfig())
        assert forward_ops == [n_forward] and len(ops) == n_forward + 1
        recorded = {(op.grad_fn.__module__, op.grad_fn.__qualname__.split(".")[0]) for op in ops}
        assert recorded == {(f.__module__, f.__name__) for f in own + specific}
        assert all(module != ad.__name__ for module, _ in recorded)


@pytest.mark.parametrize("poison", ["l2_overflow", "nan_head"])
def test_nonfinite_objective_stops_the_step_before_backward(poison, monkeypatch):
    """A non-finite objective raises before ``backward``: the parameters and
    both Adam moments keep the values the step before left."""
    split, vocab, config = synthetic_split(n=20, seed=2)
    assert config.l2_weight > 0
    params = init_params(config, len(vocab), seed=0)
    state = AdamState()
    record = collate(split.train[:8])
    step(params, state, record, config, TrainConfig())  # warm moments
    if poison == "l2_overflow":  # its square is inf; the data terms stay finite
        params.overall_head.bias.values[0] = 1e160
    else:
        params.aspect_heads[0].weight.values[0, 0] = np.nan
    before = [{name: a.copy() for name, a in d.items()}
              for d in (dict((n, t.values) for n, t in params.named_tensors()),
                        state.first, state.second)]
    backwards = []
    monkeypatch.setattr(training, "backward", lambda root: backwards.append(root))
    with pytest.raises(NumericError, match="non-finite loss"):
        step(params, state, record, config, TrainConfig())
    assert backwards == [] and state.step == 1
    after = (dict((n, t.values) for n, t in params.named_tensors()), state.first, state.second)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for name in old:
            assert np.array_equal(old[name], new[name], equal_nan=True), name


@pytest.mark.parametrize("l2_weight", [0.0, 0.01])
@pytest.mark.parametrize("n", [1, 8])
def test_logged_loss_is_the_breakdown_total(l2_weight, n):
    """One batch: the epoch's mean loss is ``combined_loss``'s total at the
    starting parameters, L2 term included; for one example, the batch of
    one matches the example alone up to rounding."""
    split, vocab, config = synthetic_split(
        n=30, seed=5, config=tiny_model_config(l2_weight=l2_weight))
    train_config = TrainConfig(epochs=1, batch_size=8, seed=4)
    one_batch = DatasetSplit(split.train[:n], split.validation, [], seed=5)
    result = train(init_params(config, len(vocab), seed=2), config, train_config, one_batch)

    params = init_params(config, len(vocab), seed=2)
    (batch,) = batch_iter(one_batch.train, train_config.batch_size,
                          np.random.default_rng(train_config.seed))
    record = collate(batch)
    _, breakdown = combined_loss(forward(record, params, config), record, params, config)
    assert result.log[0].mean_loss == breakdown.total
    assert (breakdown.l2 is None) == (l2_weight == 0)
    if n == 1:
        (ex,) = batch
        _, alone = combined_loss(forward(ex, params, config), ex, params, config)
        assert abs(alone.total - breakdown.total) <= 1e-12 * abs(breakdown.total)


def test_evaluate_of_no_examples_has_zero_support():
    _, vocab, config = synthetic_split(n=20, seed=8)
    params = init_params(config, len(vocab), seed=0)
    report = evaluate(params, config, [])
    assert report.overall.support == 0
    assert [metrics.support for metrics in report.aspects] == [0] * config.aspect_count
    with pytest.raises(ValueError, match="no examples"):
        collate([])


def test_evaluate_matches_each_example_alone():
    split, vocab, config = synthetic_split(n=120, seed=9, unrated_fraction=0.3)
    params = init_params(config, len(vocab), seed=0)
    examples = split.train  # more than one chunk
    assert len(examples) > training.EVAL_CHUNK
    report = evaluate(params, config, examples)
    overall, aspects = [], [[] for _ in range(config.aspect_count)]
    for ex in examples:
        predicted = np.argmax(forward(ex, params, config).logits.values, axis=-1)
        overall.append(int(predicted[-1]))
        for k in range(config.aspect_count):
            if ex.aspect_labels[k] >= 0:
                aspects[k].append(int(predicted[k]))
    expected = compute_metrics([ex.overall_label for ex in examples], overall)
    assert np.array_equal(report.overall.confusion, expected.confusion)
    for k, metrics in enumerate(report.aspects):
        labels = [ex.aspect_labels[k] for ex in examples if ex.aspect_labels[k] >= 0]
        assert np.array_equal(metrics.confusion, compute_metrics(labels, aspects[k]).confusion)


@pytest.mark.parametrize("split_seed", [0, 3, 5])
def test_learns_the_synthetic_corpus_with_l2_outside_the_tables(split_seed):
    # L2 on every parameter but the embedding tables, which lazy Adam updates
    # on their looked-up rows alone; the plateau lasts longer than the default
    # patience. Measured: overall macro-F1 0.98, 1.00, 1.00.
    split, vocab, config = synthetic_split(
        n=300, seed=split_seed, config=tiny_model_config(l2_weight=1e-4)
    )
    params = init_params(config, len(vocab), seed=0)
    result = train(params, config, TrainConfig(learning_rate=0.01, epochs=40, patience=40), split)
    assert evaluate(result.params, config, split.test).overall.macro_f1 >= 0.9
