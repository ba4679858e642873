import json
import math
import os
import stat

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent.attention import (
    AttentionTrace,
    PositionAttentionResult,
    SelfAttentionResult,
    attention_weights,
)
from aspectsent.autodiff import Tape, Tensor, backward
from aspectsent import model
from aspectsent.model import (
    ModelConfig,
    aspect_rank,
    combined_loss,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    orthogonal_penalty,
    save_checkpoint,
)
from aspectsent.autodiff import EmptyAttentionError
from aspectsent.data import collate
from aspectsent.embeddings import PAD_ID, Vocabulary
from aspectsent.heatmap import build_report
from aspectsent.textfile import InputError
from aspectsent.training import standard_ablation_grid
from tests.gradcheck import (
    concat, dense_grad, grad_check, mul, product, scale_rows, weighted_sum,
)


class FakeExample:
    def __init__(self, token_ids, mask, overall_label, aspect_labels):
        self.token_ids = np.asarray(token_ids, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=bool)
        self.overall_label = overall_label
        self.aspect_labels = aspect_labels
        self.tokens = [f"t{i}" for i in token_ids]


def toy_config(**overrides):
    base = dict(
        aspect_names=["food", "service"],
        embedding_width=4,
        cell_width=4,
        max_length=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def toy_model():
    config = toy_config()
    params = init_params(config, vocab_size=6, seed=0)
    return config, params


def example(ids=(2, 3, 4), mask=(1, 1, 1), overall=1, aspects=(1, 0)):
    """An encoded example; an unrated aspect's label is -1."""
    return FakeExample(list(ids), list(mask), overall, np.array(aspects, dtype=np.int64))


def test_forward_probability_pairs_normalized(toy_model):
    # each head gives a logit pair; the probabilities its losses stand for,
    # exp(-loss) per target, form a pair that sums to one
    config, params = toy_model
    out = forward(example(), params, config)
    assert out.logits.values.shape == (3, 2)
    for logits in out.logits.values:
        probs = [math.exp(-cross_entropy(logits, target)[0]) for target in (0, 1)]
        assert min(probs) > 0
        assert abs(sum(probs) - 1.0) <= 1e-9


def test_forward_zeroed_heads_give_uniform_probs(toy_model):
    config, params = toy_model
    for head in params.aspect_heads + [params.overall_head]:
        head.weight.values[:] = 0.0
        head.bias.values[:] = 0.0
    out = forward(example(), params, config)
    assert np.array_equal(out.logits.values, np.zeros((3, 2)))
    for logits in out.logits.values:
        for target in (0, 1):
            assert abs(cross_entropy(logits, target)[0] - math.log(2)) < 1e-12


def numpy_lstm(xs, p):
    """One LSTM direction over the rows of xs, from scratch in numpy."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    H = p.cell_width
    # gate g owns columns [g*H, (g+1)*H) of w, u and b: input, forget, output, candidate
    w, u, b = ([m.values[..., g * H:(g + 1) * H] for g in range(4)] for m in (p.w, p.u, p.b))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    hs = []
    for x in xs:
        i = sig(x @ w[0] + h_prev @ u[0] + b[0])
        f = sig(x @ w[1] + h_prev @ u[1] + b[1])
        o = sig(x @ w[2] + h_prev @ u[2] + b[2])
        cand = np.tanh(x @ w[3] + h_prev @ u[3] + b[3])
        c_prev = f * c_prev + i * cand
        h_prev = o * np.tanh(c_prev)
        hs.append(h_prev)
    return np.stack(hs)


def test_forward_composes_module_oracles(toy_model):
    # 3-token example with one padded position, checked against a
    # from-scratch numpy recomputation
    config, params = toy_model
    ex = example(ids=(2, 3, 4, 0), mask=(1, 1, 1, 0), aspects=(1, -1))
    out = forward(ex, params, config)

    emb = np.hstack(
        [params.tables.word.values[ex.token_ids[:3]], params.tables.position.values[:3]]
    )
    # the backward direction reads the unmasked positions in reverse; row t
    # is [forward state at t, backward state at t]
    hs = np.hstack(
        [numpy_lstm(emb, params.lstm_fwd), numpy_lstm(emb[::-1], params.lstm_bwd)[::-1]]
    )
    assert hs.shape == (3, config.hidden_width)
    ebar = emb.mean(axis=0)

    contexts = []
    for k in range(2):
        attn = params.attention[k]
        logits = np.tanh(np.einsum("ti,ij,tj->t", hs, attn.self_attn_w.values, hs)
                         + float(attn.self_attn_b.values))
        alpha = np.exp(logits - logits.max())
        alpha /= alpha.sum()
        z = hs * alpha[:, None]
        g = np.tanh(ebar @ attn.pos_attn_w.values @ hs.T + float(attn.pos_attn_b.values))
        beta = np.exp(g - g.max())
        beta /= beta.sum()
        s = (z * beta[:, None]).sum(axis=0)
        contexts.append(s)
        np.testing.assert_allclose(out.traces[k].self_weights.values[:3], alpha, atol=1e-12)
        np.testing.assert_allclose(out.traces[k].pos_weights.values[:3], beta, atol=1e-12)
        assert out.traces[k].self_weights.values[3] == 0.0
        assert out.traces[k].pos_weights.values[3] == 0.0
        np.testing.assert_allclose(out.traces[k].context.values, s, atol=1e-12)

        head = params.aspect_heads[k]
        head_logits = s @ head.weight.values + head.bias.values
        np.testing.assert_allclose(out.logits.values[k], head_logits, atol=1e-12)

    s_o = np.concatenate(contexts)
    head_logits = s_o @ params.overall_head.weight.values + params.overall_head.bias.values
    np.testing.assert_allclose(out.logits.values[-1], head_logits, atol=1e-12)


def test_cross_entropy_uniform_is_ln2():
    for logits in ([0.0, 0.0], [3.5, 3.5], [-2.0, -2.0]):
        for target in (0, 1):
            value, _ = cross_entropy(np.array(logits), target)
            assert abs(value - math.log(2)) < 1e-12


def test_cross_entropy_perfect_prediction_is_tiny():
    assert cross_entropy(np.array([-20.0, 20.0]), 1)[0] < 1e-11
    assert cross_entropy(np.array([20.0, -20.0]), 0)[0] < 1e-11


def test_cross_entropy_hand_value():
    # logits 0 and ln 9: softmax (0.1, 0.9)
    value, _ = cross_entropy(np.array([0.0, math.log(9.0)]), 1)
    assert abs(value - (-math.log(0.9))) < 1e-12


def two_log_cross_entropy(logits, target):
    """The earlier composition, in numpy: the softmax of the logit pair, each
    probability clipped to [1e-12, 1 - 1e-12], and both logs, each weighted
    by its label indicator; the derivative by the logits, which is 0 where
    the chosen probability's clip is active. Returns both, and whether that
    clip is inactive."""
    eps = 1e-12
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    q = np.clip(probs, eps, 1.0 - eps)
    label = np.array([1 - target, target])
    value = -np.sum(label * np.log(q))
    inside = eps <= probs[target] <= 1.0 - eps
    dp = -label / q if inside else np.zeros(2)
    return value, probs * (dp - dp @ probs), inside


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("positive", [0.9, 0.23, 0.0, 1e-12, 1.0 - 1e-12, 1.0])  # clip bounds
def test_cross_entropy_matches_two_log_oracle(target, positive):
    """``positive`` is the softmax's positive probability; 0 and 1 stand for a
    margin of 800, where it rounds to exactly 0 or 1. Where the earlier clip
    is inactive the op equals the earlier composition within 1e-12, in value
    and gradient; where it is active the op still costs the margin, less its
    rounding, and passes softmax - onehot (about -1 and +1 when wrong, 0 when
    right), where the clip passed nothing."""
    margin = {0.0: -800.0, 1.0: 800.0}.get(positive)
    if margin is None:
        margin = math.log(positive) - math.log1p(-positive)
    logits = np.array([0.0, margin])
    value, grad = cross_entropy(logits, target)
    expected_value, expected_grad, inside = two_log_cross_entropy(logits, target)
    if inside:
        assert abs(value - expected_value) <= 1e-12 * max(1.0, expected_value)
        assert np.max(np.abs(grad(1.0) - expected_grad)) <= 1e-12
    else:
        assert not expected_grad.any()
        wrong_by = margin if target == 0 else -margin
        assert abs(value - max(wrong_by, 0.0)) <= 1e-11
        wrong = 1.0 if wrong_by > 0 else 0.0
        softmax_minus_onehot = np.full(2, wrong)
        softmax_minus_onehot[target] = -wrong
        assert np.max(np.abs(grad(1.0) - softmax_minus_onehot)) <= 1e-11


@pytest.mark.parametrize("margin", [28.0, 40.0])
def test_cross_entropy_wrong_prediction_costs_its_margin(margin):
    """A wrong prediction by a logit margin of 27.6 or more met the earlier
    clip: a loss of 27.631 and no gradient. Now its loss is the margin
    within 1e-12, and the logits' gradients are +1 and -1, in a pair or in
    a batch row; a row with target -1 adds nothing."""
    loss, pair_grad = cross_entropy(np.array([margin, 0.0]), 1)
    rows = np.array([[0.0, margin], [0.3, -0.2], [0.0, margin]])
    batch, rows_grad = cross_entropy(rows, np.array([0, -1, 0]))
    assert abs(loss - margin) <= 1e-12 * margin
    assert abs(batch - 2 * margin) <= 2e-12 * margin
    np.testing.assert_allclose(pair_grad(1.0), [1.0, -1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rows_grad(1.0), [[-1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]],
                               rtol=0, atol=1e-12)


def test_orthogonal_penalty_orthonormal_rows_zero():
    assert orthogonal_penalty(np.eye(3))[0] == 0.0
    # one row has no other row to be orthogonal to: the constant 0, with no gradient
    value, grad = orthogonal_penalty([np.array([0.6, 0.8])])
    assert value == 0.0 and grad(1.0) == (None,)


def test_orthogonal_penalty_duplicate_unit_rows():
    row = np.array([0.6, 0.8])
    penalty, _ = orthogonal_penalty([row, row])
    assert abs(penalty - math.sqrt(2)) <= 1e-9


def test_orthogonal_penalty_rejects_rows_it_cannot_stack():
    for rows in ([], [np.ones(3), np.ones(4)], [np.array(1.0)] * 2, [np.ones((2, 2, 3))] * 2):
        with pytest.raises(ad.ShapeError, match="orthogonal_penalty"):
            orthogonal_penalty(rows)


def test_orthogonal_penalty_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = rng.normal(size=(3, 5))
        normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
        gram = normalized @ normalized.T
        expected = np.linalg.norm(gram - np.eye(3))
        assert abs(orthogonal_penalty(m)[0] - expected) < 1e-10


def test_l2_penalty_matches_composed_chain():
    params = init_params(toy_config(), vocab_size=6, seed=4)
    assert model.L2_EXEMPT == {"word_table", "position_table"}
    chain = None
    for name, t in params.named_tensors():
        if name in model.L2_EXEMPT:  # the embedding tables are outside the term
            continue
        term = ad.reduce_sum(mul(t, t))
        chain = term if chain is None else ad.add(chain, term)
    value = model.l2_penalty(params)
    assert isinstance(value, float)
    # np.vdot sums in another order than the chain's np.sum
    assert abs(value - chain.item()) <= 1e-14 * chain.item()


def test_combined_loss_reduces_to_overall_when_weights_zero(toy_model):
    config, params = toy_model
    config = toy_config(
        aspect_loss_weight=0.0, self_orth_weight=0.0,
        pos_orth_weight=0.0, l2_weight=0.0,
    )
    out = forward(example(), params, config)
    total, breakdown = combined_loss(out, example(), params, config)
    assert total.item() == breakdown.overall == breakdown.total
    assert breakdown.l2 is None
    assert breakdown.aspect_terms == []
    assert breakdown.self_orth is None and breakdown.pos_orth is None


def test_combined_loss_zero_parameters_closed_form():
    config = toy_config()
    params = init_params(config, vocab_size=6, seed=0)
    for tensor in params.tensors():
        tensor.values[...] = 0.0
    ex = example(aspects=(1, 0))
    out = forward(ex, params, config)
    total, breakdown = combined_loss(out, ex, params, config)
    ln2 = math.log(2)
    assert abs(breakdown.overall - ln2) < 1e-12
    assert [k for k, _ in breakdown.aspect_terms] == [0, 1]
    for _, v in breakdown.aspect_terms:
        assert abs(v - ln2) < 1e-12
    # identical uniform attention rows: Gram is all-ones, penalty sqrt(K(K-1))
    expected_orth = math.sqrt(2)
    assert abs(breakdown.self_orth - expected_orth) < 1e-9
    assert abs(breakdown.pos_orth - expected_orth) < 1e-9
    assert model.l2_penalty(params) == 0.0
    expected_total = (
        ln2 * (1 + config.aspect_loss_weight * 2)
        + (config.self_orth_weight + config.pos_orth_weight) * expected_orth
    )
    assert abs(total.item() - expected_total) < 1e-9


def test_combined_loss_without_position_stage_has_no_position_term():
    config = toy_config(disable_position_attention=True)
    params = init_params(config, vocab_size=6, seed=0)
    ex = example()
    out = forward(ex, params, config)
    assert all(trace.pos_weights is None for trace in out.traces)
    total, breakdown = combined_loss(out, ex, params, config)
    assert breakdown.pos_orth is None
    assert breakdown.self_orth is not None
    # the total is the whole objective: the tape's value and the L2 term's
    assert breakdown.l2 == model.l2_penalty(params) > 0
    assert total.item() + config.l2_weight * breakdown.l2 == breakdown.total


def loss_op_kinds(tape, start):
    return sorted(op.grad_fn.__qualname__.split(".")[0] for op in tape.ops[start:])


def test_paper_width_forward_reads_weights_in_place():
    # embedding 300, cell 64, K=4: the embedding op, the BiLSTM, the mean
    # embedding, 2 per aspect (each stage with its weights and products) and
    # the heads, for one example and for a batch record alike: 4 + 2K.
    # Without the position stage: no mean embedding, and per aspect stage one
    # alone, its context the sum of its rows: 3 + K. The loss adds its one op
    # whichever aspects are rated; the L2 term records nothing.
    first = example(ids=range(2, 14), mask=[1] * 9 + [0] * 3, overall=1, aspects=(1, 0, 1, 0))
    second = example(ids=range(5, 12), mask=[1] * 7, overall=0, aspects=(0, -1, 0, -1))
    third = example(ids=range(3, 8), mask=[1] * 5, overall=0, aspects=(0, -1, -1, -1))
    cases = [
        first,
        example(ids=range(2, 14), mask=[1] * 9 + [0] * 3, overall=0, aspects=(0, 1, 0, 0)),
        collate([first, second]),
        collate([second, third]),  # nobody rates aspects b and d
    ]
    for disabled, forward_ops in ((False, 12), (True, 7)):
        config = ModelConfig(aspect_names=["a", "b", "c", "d"],
                             disable_position_attention=disabled)
        params = init_params(config, vocab_size=20, seed=0)
        for record in cases:
            with Tape() as tape:
                output = forward(record, params, config)
                assert len(tape) == forward_ops
                assert loss_op_kinds(tape, forward_ops - 1) == ["heads"]
                combined_loss(output, record, params, config)
            assert loss_op_kinds(tape, forward_ops) == ["combined_loss"]


BATCHES = {
    "mixed": [
        example(ids=range(2, 14), mask=[1] * 12, overall=1, aspects=(1, 0, -1, 1)),
        example(ids=(4, 5, 3), mask=[1] * 3, overall=0, aspects=(-1, 1, -1, 0)),
        example(ids=(6, 2, 3, 7, 5), mask=(1, 1, 0, 1, 1), overall=0, aspects=(0, -1, -1, 1)),
        example(ids=range(9, 18), mask=[1] * 9, overall=1, aspects=(1, 1, -1, 0)),
    ],
    "one": [example(ids=(2, 5, 4, 3), mask=[1] * 4, overall=1, aspects=(-1, 0, 1, 1))],
}


@pytest.mark.parametrize("name, disabled", [(name, disabled) for disabled in (False, True)
                                            for name in BATCHES],
                         ids=[name + suffix for suffix in ("", "-no-position") for name in BATCHES])
def test_batch_forward_and_loss_match_each_example(name, disabled):
    """Row b of a batch's forward pass is example b's, within 1e-12, with weights
    exactly 0 at its padding; the batch loss is the mean of the examples'
    objectives within 1e-14 relative, and every gradient is within 1e-12
    relative of the mean of theirs, with none reaching the padding row. At
    paper widths, K=4, with mixed lengths, a masked hole and unrated aspects,
    with and without the position stage."""
    config = ModelConfig(aspect_names=["a", "b", "c", "d"], disable_position_attention=disabled)
    params = init_params(config, vocab_size=20, seed=3)
    batch = BATCHES[name]
    record = collate(batch)
    ad.zero_grads(params.tensors())
    with Tape():
        batch_out = forward(record, params, config)
        batch_loss, _ = combined_loss(batch_out, record, params, config)
        backward(batch_loss)
    batch_grads = [dense_grad(t) for t in params.tensors()]
    assert np.all(dense_grad(params.tables.word)[PAD_ID] == 0.0)

    ad.zero_grads(params.tensors())
    with Tape():
        total = None
        for b, ex in enumerate(batch):
            out = forward(ex, params, config)
            n = len(ex.token_ids)
            np.testing.assert_allclose(batch_out.logits.values[b], out.logits.values,
                                       rtol=0, atol=1e-12)
            for got, want in zip(batch_out.traces, out.traces):
                for stage in ("self_weights", "pos_weights"):
                    if getattr(want, stage) is None:  # no position stage
                        continue
                    row = getattr(got, stage).values[b]
                    np.testing.assert_allclose(row[:n], getattr(want, stage).values, atol=1e-12)
                    assert np.all(row[n:] == 0.0)
                np.testing.assert_allclose(got.context.values[b], want.context.values, atol=1e-12)
            loss, _ = combined_loss(out, ex, params, config)
            total = loss if total is None else ad.add(total, loss)
        mean_loss = mul(total, Tensor(1.0 / len(batch)))
        backward(mean_loss)
    assert abs(batch_loss.item() - mean_loss.item()) <= 1e-14 * abs(mean_loss.item())
    for (label, tensor), got in zip(params.named_tensors(), batch_grads):
        want = dense_grad(tensor)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), label


def test_fully_masked_row_of_a_batch_raises(toy_model):
    config, params = toy_model
    record = collate([example(), example(ids=(2, 3), mask=(0, 0))])
    with pytest.raises(EmptyAttentionError):
        forward(record, params, config)


def test_combined_loss_skips_unrated_aspects(toy_model):
    config, params = toy_model
    ex = example(aspects=(-1, -1))
    out = forward(ex, params, config)
    total, breakdown = combined_loss(out, ex, params, config)
    assert breakdown.aspect_terms == []
    assert breakdown.self_orth is not None  # traces still feed the penalties


def test_combined_loss_gradient_check():
    config = toy_config(embedding_width=3, cell_width=3)
    params = init_params(config, vocab_size=5, seed=1)
    ex = example(ids=(2, 3), mask=(1, 1), aspects=(1, 0))

    def f():
        out = forward(ex, params, config)
        total, _ = combined_loss(out, ex, params, config)
        return total

    assert grad_check(f, params.tensors()) < 1e-4


def recorded_cross_entropy(logits, target):
    """``cross_entropy`` as a tape op of its own, on one head's logits."""
    value, grad = cross_entropy(logits.values, target)
    return ad.record((logits,), value, lambda g: (grad(g),))


def recorded_orthogonal_penalty(weights):
    """``orthogonal_penalty`` as a tape op of its own."""
    value, grad = orthogonal_penalty([w.values for w in weights])
    return ad.record(tuple(weights), value, grad)


def recorded_attention_weights(scores, bias, mask):
    """``attention_weights`` as a tape op of its own, over a stage's scores."""
    out, grad = attention_weights(scores.values, bias.values, mask)
    return ad.record((scores, bias), out, grad)


def composed_mean_embedding(rows, mask):
    """The mean embedding as ``weighted_sum`` over the rows, the reference for
    ``mean_embedding``: weights 1/n on the n unmasked positions, as a constant."""
    counts = np.maximum(np.count_nonzero(mask, axis=-1, keepdims=True), 1)
    return weighted_sum(Tensor(mask / counts), rows)


def composed_self_attention(hidden, params, mask):
    """Stage one from six ops, the reference for ``self_attention``: the
    rows' ``product`` with W, a ``mul`` by the rows and a ``reduce_sum`` give
    the scores, then the weights op, ``scale_rows`` and the context's
    ``reduce_sum`` over the rows."""
    projected = product(hidden, params.self_attn_w)
    scores = ad.reduce_sum(mul(projected, hidden), axis=-1)
    weights = recorded_attention_weights(scores, params.self_attn_b, mask)
    weighted = scale_rows(hidden, weights)
    return SelfAttentionResult(weights, weighted, ad.reduce_sum(weighted, axis=-2))


def composed_position_aware_attention(weighted, hidden, mean_embedding, params, mask):
    """Stage two from four ops, the reference for ``position_aware_attention``:
    the query's ``product``, each row's product with it, the weights op and
    the context's ``weighted_sum``."""
    query = product(mean_embedding, params.pos_attn_w)
    scores = product(hidden, query, per_row=hidden.values.ndim == 3)
    weights = recorded_attention_weights(scores, params.pos_attn_b, mask)
    return PositionAttentionResult(weights, weighted_sum(weights, weighted))


def composed_objective(output, record, params, config):
    """The heads and the loss composed from engine ops, the reference for
    ``heads`` and ``combined_loss``: an ``add`` of a ``product`` per head, the
    contexts joined by ``concat``, one op per cross-entropy and penalty, and a
    ``mul`` and an ``add`` per weighted term, then a ``mul`` by 1/B for a batch.
    Reads only ``output``'s traces."""
    contexts = [t.context for t in output.traces]
    pairs = list(zip(contexts, params.aspect_heads))
    logits = [ad.add(product(c, head.weight), head.bias) for c, head in pairs]
    joined = concat(contexts, axis=-1)
    overall = ad.add(product(joined, params.overall_head.weight), params.overall_head.bias)
    targets = record.aspect_labels
    total = recorded_cross_entropy(overall, record.overall_label)
    rated = [k for k in range(config.aspect_count) if np.any(targets[..., k] >= 0)]
    if rated and config.aspect_loss_weight > 0:
        aspect_sum = None
        for k in rated:
            term = recorded_cross_entropy(logits[k], targets[..., k])
            aspect_sum = term if aspect_sum is None else ad.add(aspect_sum, term)
        total = ad.add(total, mul(aspect_sum, Tensor(config.aspect_loss_weight)))
    stages = [("self_weights", config.self_orth_weight)]
    if not config.disable_position_attention:
        stages.append(("pos_weights", config.pos_orth_weight))
    for stage, weight in stages:
        if weight > 0:
            penalty = recorded_orthogonal_penalty([getattr(t, stage) for t in output.traces])
            total = ad.add(total, mul(penalty, Tensor(weight)))
    if targets.ndim == 2:
        total = mul(total, Tensor(1.0 / len(targets)))
    return total


def grad_bits(tensor):
    grad = tensor.grad
    if isinstance(grad, ad.RowGrad):
        return grad.rows.tobytes(), grad.sums.tobytes()
    return None if grad is None else grad.tobytes()


ORACLE_RECORDS = {
    # tiny widths, K=2: a padded position; the batch, of 3 so that 1/B rounds,
    # rates no aspect 1
    "tiny-one": example(ids=(2, 3, 4, 0), mask=(1, 1, 1, 0), aspects=(1, -1)),
    "tiny-batch": collate([example(ids=(2, 3, 4, 5), mask=[1] * 4, overall=0, aspects=(1, -1)),
                           example(ids=(4, 5), mask=[1] * 2, aspects=(-1, -1)),
                           example(ids=(5, 3, 2), mask=[1] * 3, aspects=(0, -1))]),
    # paper widths, K=4: a masked hole; mixed lengths and unrated aspects
    "paper-one": BATCHES["mixed"][2],
    "paper-batch": collate(BATCHES["mixed"]),
}
ORACLE_CONFIGS = {
    "defaults": {},
    "no-aspect-loss": dict(aspect_loss_weight=0.0),
    "no-position": dict(disable_position_attention=True),
    "no-orthogonality": dict(self_orth_weight=0.0, pos_orth_weight=0.0),
}


@pytest.mark.parametrize("overrides", list(ORACLE_CONFIGS.values()), ids=list(ORACLE_CONFIGS))
@pytest.mark.parametrize("name", list(ORACLE_RECORDS))
def test_fused_heads_and_loss_match_the_composed_reference(name, overrides, monkeypatch):
    """The mean embedding, both attention stages, ``heads`` and ``combined_loss``
    give the composed reference's loss and every parameter's gradient to the
    bit; a head no loss term reads gets no gradient in both."""
    if name.startswith("tiny"):
        config, vocab_size = toy_config(**overrides), 6
    else:
        config, vocab_size = ModelConfig(aspect_names=["a", "b", "c", "d"], **overrides), 20
    params = init_params(config, vocab_size=vocab_size, seed=3)
    record = ORACLE_RECORDS[name]
    runs = []
    for composed in (False, True):
        ad.zero_grads(params.tensors())
        with monkeypatch.context() as patch, Tape():
            if composed:
                patch.setattr(model, "mean_embedding", composed_mean_embedding)
                patch.setattr(model, "self_attention", composed_self_attention)
                patch.setattr(model, "position_aware_attention", composed_position_aware_attention)
            out = forward(record, params, config)
            if composed:
                loss = composed_objective(out, record, params, config)
            else:
                loss = combined_loss(out, record, params, config)[0]
            backward(loss)
        runs.append((loss.values.tobytes(), [grad_bits(t) for t in params.tensors()]))
    (loss, grads), (want_loss, want_grads) = runs
    assert loss == want_loss
    for (label, _), got, want in zip(params.named_tensors(), grads, want_grads):
        assert got == want, label


def test_ablation_identity_recomposition(toy_model):
    config, params = toy_model
    ex = example()
    out = forward(ex, params, config)
    _, full = combined_loss(out, ex, params, config)

    ablated_config = toy_config(self_orth_weight=0.0)
    out2 = forward(ex, params, ablated_config)
    ablated_total, _ = combined_loss(out2, ex, params, ablated_config)

    # re-fold the full run's terms without self_orth, in the tensor path's order
    aspect_sum = full.aspect_terms[0][1]
    for _, value in full.aspect_terms[1:]:
        aspect_sum = aspect_sum + value
    recomposed = full.overall + config.aspect_loss_weight * aspect_sum
    recomposed = recomposed + config.pos_orth_weight * full.pos_orth
    assert ablated_total.item() == recomposed


def test_masked_padding_rows_change_nothing(toy_model):
    """Two masked padding rows leave the loss within 1e-12 relative and every
    gradient within 1e-10, and no gradient reaches the padding row."""
    config, params = toy_model
    runs = []
    for ex in (example(), example(ids=(2, 3, 4, PAD_ID, PAD_ID), mask=(1, 1, 1, 0, 0))):
        ad.zero_grads(params.tensors())
        with Tape():
            loss, _ = combined_loss(forward(ex, params, config), ex, params, config)
            backward(loss)
        runs.append((loss.item(), [dense_grad(t) for t in params.tensors()]))
    (loss, grads), (padded_loss, padded_grads) = runs
    assert abs(padded_loss - loss) <= 1e-12 * abs(loss)
    for (name, _), got, expected in zip(params.named_tensors(), padded_grads, grads):
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected)), name
    assert np.all(dense_grad(params.tables.word)[PAD_ID] == 0.0)


def test_aspect_head_gradients_are_label_decoupled():
    """An unrated aspect's head, or every aspect head when their weight is 0,
    gets no gradient at all, not a zero one."""
    for aspect_loss_weight in (0.5, 0.0):
        config = toy_config(aspect_loss_weight=aspect_loss_weight)
        params = init_params(config, vocab_size=6, seed=0)
        ex = example(aspects=(1, -1))
        with ad.Tape():
            out = forward(ex, params, config)
            loss, _ = combined_loss(out, ex, params, config)
            ad.backward(loss)
        assert params.aspect_heads[1].weight.grad is None
        assert params.aspect_heads[1].bias.grad is None
        rated = params.aspect_heads[0]
        assert (rated.weight.grad is None) == (rated.bias.grad is None) == (aspect_loss_weight == 0)
        assert params.overall_head.weight.grad is not None


def make_trace(alpha, beta, context):
    t = len(alpha)
    return AttentionTrace(
        self_weights=Tensor(alpha),
        pos_weights=Tensor(beta),
        context=Tensor(context),
    )


def test_aspect_rank_score_is_twice_context_norm(toy_model):
    config, params = toy_model
    out = forward(example(), params, config)
    for k, score in aspect_rank(out.traces):
        expected = 2.0 * np.linalg.norm(out.traces[k].context.values)
        assert abs(score - expected) <= 1e-12 * expected
    # ties broken by ascending aspect index
    assert [k for k, _ in aspect_rank([out.traces[1], out.traces[1]])] == [0, 1]


def test_aspect_rank_single_aspect():
    ranked = aspect_rank([make_trace([1.0], [1.0], [3.0, 4.0])])
    assert len(ranked) == 1 and ranked[0][0] == 0


def test_aspect_rank_magnitude_orders_by_context_norm():
    big = make_trace([0.5, 0.5], [0.5, 0.5], [3.0, 4.0])  # norm 5
    small = make_trace([0.5, 0.5], [0.5, 0.5], [0.3, 0.4])  # norm 0.5
    ranked = aspect_rank([small, big])
    assert [k for k, _ in ranked] == [1, 0]
    assert ranked[0][1] > ranked[1][1]


def test_build_report_unknown_ranking_mode(toy_model):
    config, params = toy_model
    output = forward(example(), params, config)
    with pytest.raises(ValueError, match="unknown ranking mode 'literal'"):
        build_report(["a", "b", "c"], output, config.aspect_names, "literal")


def test_checkpoint_round_trip_bit_exact(tmp_path, toy_model):
    config, params = toy_model
    vocab = Vocabulary(
        {t: i for i, t in enumerate(["<pad>", "<unk>", "a", "b", "c", "d"])},
        ["<pad>", "<unk>", "a", "b", "c", "d"],
    )
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, vocab, params)
    config2, vocab2, params2 = load_checkpoint(path)
    assert config2 == config
    assert vocab2.id_to_token == vocab.id_to_token
    originals = dict(params.named_tensors())
    for name, tensor in params2.named_tensors():
        np.testing.assert_array_equal(tensor.values, originals[name].values)
    ex = example()
    out1 = forward(ex, params, config)
    out2 = forward(ex, params2, config2)
    np.testing.assert_array_equal(out1.logits.values, out2.logits.values)


@pytest.mark.parametrize("position_stage", [True, False], ids=["position", "no-position"])
def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch, position_stage):
    config = toy_config(disable_position_attention=not position_stage, l2_weight=0)
    params = init_params(config, vocab_size=6, seed=3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    config2, _, params2 = load_checkpoint(path)
    assert config2 == config
    assert [name for name, _ in params2.named_tensors()] == [
        name for name, _ in params.named_tensors()
    ]
    for (_, loaded), (_, saved) in zip(params2.named_tensors(), params.named_tensors()):
        assert np.array_equal(loaded.values, saved.values)


def test_parameter_census_position_stage(toy_model):
    config, params = toy_model
    ablated = toy_config(disable_position_attention=True)
    params2 = init_params(ablated, vocab_size=6, seed=0)
    d2 = 2 * config.embedding_width
    expected_drop = config.aspect_count * (d2 * config.hidden_width + 1)
    assert params.parameter_count() - params2.parameter_count() == expected_drop


def toy_vocab():
    tokens = ["<pad>", "<unk>", "a", "b", "c", "d"]
    return Vocabulary({t: i for i, t in enumerate(tokens)}, tokens)


def rewrite_checkpoint(path, edit_meta=lambda meta: None, edit_arrays=lambda arrays: None):
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        arrays = {key: archive[key] for key in archive.files if key != "meta"}
    edit_meta(meta)
    edit_arrays(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                 **arrays)


@pytest.mark.parametrize(
    "edit_meta, edit_arrays, message",
    [
        (lambda m: m.pop("format_version"), lambda a: None, "format version None"),
        (lambda m: m.update(format_version=1), lambda a: None, "format version 1"),
        (lambda m: m["config"].update(class_count=2), lambda a: None, "class_count"),
        (lambda m: None, lambda a: a.pop("param/overall_head.bias"), "overall_head.bias"),
        (lambda m: None, lambda a: a.update({"param/extra": np.zeros(1)}), "extra"),
        (
            lambda m: None,
            lambda a: a.update({"param/overall_head.bias": np.zeros(3)}),
            "overall_head.bias",
        ),
        (
            lambda m: m["config"].update(cell_width="4"),
            lambda a: None,
            "config: bad value for 'cell_width': '4'",
        ),
        (
            lambda m: m["config"].update(max_length=True),
            lambda a: None,
            "config: bad value for 'max_length': True",
        ),
        (
            lambda m: m["config"].update(l2_weight=None),
            lambda a: None,
            "config: bad value for 'l2_weight': None",
        ),
        (
            lambda m: m["config"].update(aspect_names=["food", 2]),
            lambda a: None,
            "config: bad value for 'aspect_names': ['food', 2]",
        ),
        (lambda m: m["config"].update(cell_width=0), lambda a: None, "cell_width must be"),
        (
            lambda m: m["config"].update(aspect_names=["food", "food"]),
            lambda a: None,
            "config: aspect_names must be non-empty and distinct, got ['food', 'food']",
        ),
        (lambda m: m.update(config=[]), lambda a: None, "config is not a key-value map"),
    ],
    ids=["no-version", "old-version", "unknown-key", "missing", "extra", "shape",
         "str-for-int", "bool-for-int", "none-for-float", "int-aspect-name", "out-of-range",
         "repeated-aspect-name", "config-not-a-map"],
)
def test_load_checkpoint_rejects_mismatch(tmp_path, toy_model, edit_meta, edit_arrays, message):
    config, params = toy_model
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    rewrite_checkpoint(path, edit_meta, edit_arrays)
    with pytest.raises(InputError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert message in str(err.value)


LAYOUT_VARIANTS = standard_ablation_grid(toy_config()) + [
    ("one_aspect", toy_config(aspect_names=["food"])),
]


@pytest.mark.parametrize(
    "config", [config for _, config in LAYOUT_VARIANTS], ids=[name for name, _ in LAYOUT_VARIANTS]
)
def test_checkpoint_round_trip_keeps_the_layout(tmp_path, config):
    params = init_params(config, vocab_size=6, seed=4)
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    _, _, loaded = load_checkpoint(path)
    saved = params.named_tensors()
    assert [name for name, _ in loaded.named_tensors()] == [name for name, _ in saved]
    for (_, got), (_, want) in zip(loaded.named_tensors(), saved):
        assert got.values.dtype == np.float64
        assert got.values.shape == want.values.shape
        assert np.array_equal(got.values, want.values)


def test_load_checkpoint_refuses_position_stage_under_ablated_config(tmp_path, toy_model):
    config, params = toy_model
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    rewrite_checkpoint(path, lambda m: m["config"].update(disable_position_attention=True))
    with pytest.raises(InputError, match=r"unexpected parameters \['attention.0.pos_attn_b'"):
        load_checkpoint(path)


def test_load_checkpoint_reads_int_arrays_as_float64(tmp_path, toy_model):
    config, params = toy_model
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    ints = np.array([3, -2], dtype=np.int64)
    rewrite_checkpoint(path, edit_arrays=lambda a: a.update({"param/overall_head.bias": ints}))
    _, _, loaded = load_checkpoint(path)
    assert loaded.overall_head.bias.values.dtype == np.float64
    np.testing.assert_array_equal(loaded.overall_head.bias.values, ints)


def test_save_syncs_the_archive_before_the_rename_and_the_directory_after(
        tmp_path, toy_model, monkeypatch):
    """The archive reaches the disk before it replaces the old one, and the
    rename reaches it before the save returns."""
    config, params = toy_model
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(model.os, "fsync", fsync)
    monkeypatch.setattr(model.os, "replace", replace)
    save_checkpoint(tmp_path / "model.npz", config, toy_vocab(), params)
    assert calls == ["fsync file", "replace", "fsync directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_failed_save_keeps_earlier_checkpoint(tmp_path, toy_model, monkeypatch):
    config, params = toy_model
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    before = path.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(model.np, "savez", broken_savez)
    params.overall_head.bias.values += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, config, toy_vocab(), params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
