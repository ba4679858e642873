import json
import math

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent.attention import AttentionTrace
from aspectsent.autodiff import Tensor, grad_check
from aspectsent import model
from aspectsent.model import (
    CheckpointFormatError,
    LossBreakdown,
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
from aspectsent.embeddings import Vocabulary


class FakeExample:
    def __init__(self, token_ids, mask, overall_label, aspect_labels):
        self.token_ids = np.asarray(token_ids, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=bool)
        self.overall_label = overall_label
        self.aspect_labels = aspect_labels


def toy_config(**overrides):
    base = dict(
        aspect_names=["food", "service"],
        embedding_width=4,
        cell_width=4,
        max_length=8,
        bidirectional=False,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def toy_model():
    config = toy_config()
    params = init_params(config, vocab_size=6, seed=0)
    return config, params


def example(ids=(2, 3, 4), mask=(1, 1, 1), overall=1, aspects=(1, 0)):
    return FakeExample(list(ids), list(mask), overall, list(aspects))


def test_forward_probability_pairs_normalized(toy_model):
    config, params = toy_model
    out = forward(example(), params, config)
    for probs in out.aspect_probs + [out.overall_probs]:
        assert probs.values.shape == (2,)
        assert np.all(probs.values >= 0)
        assert abs(probs.values.sum() - 1.0) <= 1e-9


def test_forward_zeroed_heads_give_uniform_probs(toy_model):
    config, params = toy_model
    for head in params.aspect_heads + [params.overall_head]:
        head.weight.values[:] = 0.0
        head.bias.values[:] = 0.0
    out = forward(example(), params, config)
    for probs in out.aspect_probs + [out.overall_probs]:
        np.testing.assert_allclose(probs.values, [0.5, 0.5])


def test_forward_composes_module_oracles(toy_model):
    # 2-token example checked against a from-scratch numpy recomputation
    config, params = toy_model
    ex = example(ids=(2, 3), mask=(1, 1), aspects=(1, None))
    out = forward(ex, params, config)

    d = config.embedding_width
    emb = np.hstack(
        [params.tables.word.values[ex.token_ids], params.tables.position.values[:2]]
    )
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h_prev = np.zeros(config.cell_width)
    c_prev = np.zeros(config.cell_width)
    hs = []
    p = params.lstm_fwd
    for t in range(2):
        x = emb[t]
        i = sig(x @ p.input_gate_w.values + h_prev @ p.input_gate_u.values + p.input_gate_b.values)
        f = sig(x @ p.forget_gate_w.values + h_prev @ p.forget_gate_u.values + p.forget_gate_b.values)
        o = sig(x @ p.output_gate_w.values + h_prev @ p.output_gate_u.values + p.output_gate_b.values)
        cand = np.tanh(x @ p.candidate_w.values + h_prev @ p.candidate_u.values + p.candidate_b.values)
        c_prev = f * c_prev + i * cand
        h_prev = o * np.tanh(c_prev)
        hs.append(h_prev)
    hs = np.stack(hs)
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
        np.testing.assert_allclose(out.traces[k].self_weights.values, alpha, atol=1e-12)
        np.testing.assert_allclose(out.traces[k].pos_weights.values, beta, atol=1e-12)
        np.testing.assert_allclose(out.traces[k].context.values, s, atol=1e-12)

        head = params.aspect_heads[k]
        head_logits = s @ head.weight.values + head.bias.values
        probs = np.exp(head_logits - head_logits.max())
        probs /= probs.sum()
        np.testing.assert_allclose(out.aspect_probs[k].values, probs, atol=1e-12)

    s_o = np.concatenate(contexts)
    head_logits = s_o @ params.overall_head.weight.values + params.overall_head.bias.values
    probs = np.exp(head_logits - head_logits.max())
    probs /= probs.sum()
    np.testing.assert_allclose(out.overall_probs.values, probs, atol=1e-12)


def test_cross_entropy_uniform_is_ln2():
    for target in (0, 1):
        loss = cross_entropy(Tensor([0.5, 0.5]), target)
        assert abs(loss.item() - math.log(2)) < 1e-12


def test_cross_entropy_perfect_prediction_is_tiny():
    assert cross_entropy(Tensor([0.0, 1.0]), 1).item() < 1e-11
    assert cross_entropy(Tensor([1.0, 0.0]), 0).item() < 1e-11


def test_cross_entropy_hand_value():
    loss = cross_entropy(Tensor([0.1, 0.9]), 1)
    assert abs(loss.item() - (-math.log(0.9))) < 1e-12


def test_orthogonal_penalty_orthonormal_rows_zero():
    assert orthogonal_penalty(Tensor(np.eye(3))).item() == 0.0


def test_orthogonal_penalty_duplicate_unit_rows():
    row = np.array([0.6, 0.8])
    penalty = orthogonal_penalty(Tensor(np.stack([row, row])))
    assert abs(penalty.item() - math.sqrt(2)) <= 1e-9


def test_orthogonal_penalty_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = rng.normal(size=(3, 5))
        normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
        gram = normalized @ normalized.T
        expected = np.linalg.norm(gram - np.eye(3))
        assert abs(orthogonal_penalty(Tensor(m)).item() - expected) < 1e-10


def test_orthogonal_penalty_zero_rows_contribute_nothing():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert orthogonal_penalty(Tensor(m)).item() == 0.0
    assert orthogonal_penalty(Tensor(np.zeros((2, 3)))).item() == 0.0


def test_combined_loss_reduces_to_overall_when_weights_zero(toy_model):
    config, params = toy_model
    config = toy_config(
        aspect_loss_weight=0.0, self_orth_weight=0.0,
        pos_orth_weight=0.0, l2_weight=0.0,
    )
    out = forward(example(), params, config)
    total, breakdown = combined_loss(out, example(), params, config)
    assert total.item() == breakdown.overall
    assert breakdown.aspect_terms == []
    assert breakdown.self_orth is None and breakdown.pos_orth is None
    assert breakdown.l2 is None


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
    assert breakdown.l2 == 0.0
    expected_total = (
        ln2 * (1 + config.aspect_loss_weight * 2)
        + (config.self_orth_weight + config.pos_orth_weight) * expected_orth
    )
    assert abs(total.item() - expected_total) < 1e-9


def test_combined_loss_respects_rated_aspect_cap(toy_model):
    config, params = toy_model
    capped = toy_config(max_rated_aspects=1)
    ex = example(aspects=(None, 1))
    out = forward(ex, params, capped)
    _, breakdown = combined_loss(out, ex, params, capped)
    # only the first rated aspect (index 1 here) fits under the cap
    assert [k for k, _ in breakdown.aspect_terms] == [1]

    zero_cap = toy_config(max_rated_aspects=0)
    out = forward(ex, params, zero_cap)
    _, breakdown = combined_loss(out, ex, params, zero_cap)
    assert breakdown.aspect_terms == []


def test_combined_loss_skips_unrated_aspects(toy_model):
    config, params = toy_model
    ex = example(aspects=(None, None))
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


def test_ablation_identity_recomposition(toy_model):
    config, params = toy_model
    ex = example()
    out = forward(ex, params, config)
    _, full = combined_loss(out, ex, params, config)

    ablated_config = toy_config(self_orth_weight=0.0)
    out2 = forward(ex, params, ablated_config)
    ablated_total, _ = combined_loss(out2, ex, params, ablated_config)

    recomposed = LossBreakdown.compose(
        full.overall, full.aspect_terms, None, full.pos_orth, full.l2, config
    )
    assert ablated_total.item() == recomposed


def test_aspect_head_gradients_are_label_decoupled(toy_model):
    config, params = toy_model
    ex = example(aspects=(1, 0))
    with ad.Tape():
        out = forward(ex, params, config)
        loss = cross_entropy(out.aspect_probs[0], 1)
        ad.backward(loss)
    assert params.aspect_heads[1].weight.grad is None
    assert params.aspect_heads[1].bias.grad is None
    assert params.aspect_heads[0].weight.grad is not None


def make_trace(alpha, beta, context):
    t = len(alpha)
    return AttentionTrace(
        self_weights=Tensor(alpha),
        pos_weights=Tensor(beta),
        context=Tensor(context),
    )


def test_aspect_rank_literal_mode_is_constant(toy_model):
    config, params = toy_model
    out = forward(example(), params, config)
    ranked = aspect_rank(out.traces, mode="literal")
    for _, score in ranked:
        assert abs(score - 2.0) < 1e-6
    # ties broken by ascending aspect index
    assert [k for k, _ in ranked] == [0, 1]


def test_aspect_rank_single_aspect():
    trace = make_trace([1.0], [1.0], [3.0, 4.0])
    for mode in ("literal", "magnitude"):
        ranked = aspect_rank([trace], mode=mode)
        assert len(ranked) == 1 and ranked[0][0] == 0


def test_aspect_rank_magnitude_orders_by_context_norm():
    big = make_trace([0.5, 0.5], [0.5, 0.5], [3.0, 4.0])  # norm 5
    small = make_trace([0.5, 0.5], [0.5, 0.5], [0.3, 0.4])  # norm 0.5
    ranked = aspect_rank([small, big], mode="magnitude")
    assert [k for k, _ in ranked] == [1, 0]
    assert ranked[0][1] > ranked[1][1]


def test_aspect_rank_unknown_mode():
    with pytest.raises(ValueError):
        aspect_rank([], mode="other")


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
    np.testing.assert_array_equal(out1.overall_probs.values, out2.overall_probs.values)


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
    ],
    ids=["no-version", "old-version", "unknown-key", "missing", "extra", "shape"],
)
def test_load_checkpoint_rejects_mismatch(tmp_path, toy_model, edit_meta, edit_arrays, message):
    config, params = toy_model
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, toy_vocab(), params)
    rewrite_checkpoint(path, edit_meta, edit_arrays)
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert message in str(err.value)


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
