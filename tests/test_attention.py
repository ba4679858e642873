import math

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent.attention import (
    AspectAttentionParams,
    init_attention_params,
    position_aware_attention,
    self_attention,
)
from aspectsent.autodiff import EmptyAttentionError, Tensor
from tests.gradcheck import grad_check, mul


def make_params(hidden, embed, rng=None, zero=False):
    if zero:
        return AspectAttentionParams(
            self_attn_w=ad.parameter(np.zeros((hidden, hidden))),
            self_attn_b=ad.parameter(0.0),
            pos_attn_w=ad.parameter(np.zeros((embed, hidden))),
            pos_attn_b=ad.parameter(0.0),
        )
    return init_attention_params(hidden, embed, rng, "attn")


def test_zero_weights_give_uniform_attention():
    params = make_params(3, 4, zero=True)
    hidden = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    mask = np.array([True, True, True, True, False])
    result = self_attention(hidden, params, mask)
    np.testing.assert_allclose(result.weights.values[:4], np.full(4, 0.25))
    assert result.weights.values[4] == 0.0


def test_single_token_weight_one_and_passthrough():
    rng = np.random.default_rng(1)
    params = make_params(3, 4, rng)
    hidden = Tensor(rng.normal(size=(1, 3)))
    result = self_attention(hidden, params, [True])
    assert result.weights.values[0] == 1.0
    np.testing.assert_allclose(result.weighted.values, hidden.values, atol=1e-15)


def test_self_attention_two_token_hand_case():
    # H=2, T=2: compute the bilinear logits and softmax with plain floats
    w = np.array([[0.5, -0.2], [0.1, 0.3]])
    b = 0.25
    h = np.array([[1.0, 2.0], [-1.0, 0.5]])
    params = AspectAttentionParams(
        self_attn_w=ad.parameter(w),
        self_attn_b=ad.parameter(b),
        pos_attn_w=None,
        pos_attn_b=None,
    )
    result = self_attention(Tensor(h), params, [True, True])
    logits = [math.tanh(h[t] @ w @ h[t] + b) for t in range(2)]
    exps = [math.exp(v - max(logits)) for v in logits]
    alphas = [e / sum(exps) for e in exps]
    np.testing.assert_allclose(result.weights.values, alphas, atol=1e-15)
    np.testing.assert_allclose(
        result.weighted.values, h * np.array(alphas)[:, None], atol=1e-15
    )


def test_position_attention_zero_weights_mean_like():
    params = make_params(3, 4, zero=True)
    rng = np.random.default_rng(2)
    hidden = Tensor(rng.normal(size=(4, 3)))
    weighted = Tensor(rng.normal(size=(4, 3)))
    ebar = Tensor(rng.normal(size=4))
    result = position_aware_attention(weighted, hidden, ebar, params, np.ones(4, bool))
    np.testing.assert_allclose(result.weights.values, np.full(4, 0.25))
    np.testing.assert_allclose(
        result.context.values, weighted.values.mean(axis=0) * 4 * 0.25, atol=1e-15
    )


def test_position_attention_single_token():
    rng = np.random.default_rng(3)
    params = make_params(3, 4, rng)
    weighted = Tensor(rng.normal(size=(1, 3)))
    hidden = Tensor(rng.normal(size=(1, 3)))
    ebar = Tensor(rng.normal(size=4))
    result = position_aware_attention(weighted, hidden, ebar, params, [True])
    assert result.weights.values[0] == 1.0
    np.testing.assert_allclose(result.context.values, weighted.values[0], atol=1e-15)


def test_position_attention_two_token_hand_case():
    w = np.array([[0.2, -0.1], [0.4, 0.05], [-0.3, 0.6]])  # embed 3 -> hidden 2
    b = -0.1
    h = np.array([[0.5, -1.0], [1.5, 0.25]])
    z = np.array([[0.3, 0.7], [-0.2, 0.9]])
    ebar = np.array([0.1, -0.4, 0.8])
    params = AspectAttentionParams(
        self_attn_w=ad.parameter(np.zeros((2, 2))),
        self_attn_b=ad.parameter(0.0),
        pos_attn_w=ad.parameter(w),
        pos_attn_b=ad.parameter(b),
    )
    result = position_aware_attention(
        Tensor(z), Tensor(h), Tensor(ebar), params, [True, True]
    )
    logits = [math.tanh(ebar @ w @ h[t] + b) for t in range(2)]
    exps = [math.exp(v - max(logits)) for v in logits]
    betas = [e / sum(exps) for e in exps]
    np.testing.assert_allclose(result.weights.values, betas, atol=1e-15)
    np.testing.assert_allclose(
        result.context.values, betas[0] * z[0] + betas[1] * z[1], atol=1e-15
    )


def test_all_masked_raises():
    params = make_params(2, 3, np.random.default_rng(4))
    with pytest.raises(EmptyAttentionError):
        self_attention(Tensor(np.zeros((2, 2))), params, [False, False])


def test_weights_normalized_for_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(1, 7))
        params = make_params(3, 4, rng)
        hidden = Tensor(rng.normal(size=(t, 3)))
        mask = rng.random(t) < 0.7
        if not mask.any():
            mask[int(rng.integers(t))] = True
        sa = self_attention(hidden, params, mask)
        pa = position_aware_attention(
            sa.weighted, hidden, Tensor(rng.normal(size=4)), params, mask
        )
        for weights in (sa.weights.values, pa.weights.values):
            assert np.all(weights >= 0)
            assert np.all(weights[~mask] == 0)
            assert abs(weights[mask].sum() - 1.0) <= 1e-9


def test_permuting_identical_positions_permutes_weights():
    # two positions carrying identical hidden rows can be swapped freely
    rng = np.random.default_rng(6)
    params = make_params(3, 4, rng)
    row_a, row_b, row_c = rng.normal(size=(3, 3))
    ebar = Tensor(rng.normal(size=4))
    h1 = Tensor(np.stack([row_a, row_b, row_c]))
    h2 = Tensor(np.stack([row_b, row_a, row_c]))
    mask = np.ones(3, bool)
    sa1, sa2 = (self_attention(h, params, mask) for h in (h1, h2))
    np.testing.assert_allclose(
        sa1.weights.values[[1, 0, 2]], sa2.weights.values, atol=1e-15
    )
    pa1 = position_aware_attention(sa1.weighted, h1, ebar, params, mask)
    pa2 = position_aware_attention(sa2.weighted, h2, ebar, params, mask)
    np.testing.assert_allclose(
        pa1.weights.values[[1, 0, 2]], pa2.weights.values, atol=1e-15
    )
    np.testing.assert_allclose(pa1.context.values, pa2.context.values, atol=1e-12)


def test_gradient_through_both_stages():
    rng = np.random.default_rng(7)
    params = make_params(3, 4, rng)
    hidden = ad.parameter(rng.normal(size=(4, 3)))
    ebar = ad.parameter(rng.normal(size=4))
    readout = Tensor(rng.normal(size=3))
    mask = np.array([True, True, True, False])

    def f():
        sa = self_attention(hidden, params, mask)
        pa = position_aware_attention(sa.weighted, hidden, ebar, params, mask)
        return ad.reduce_sum(mul(pa.context, readout))

    err = grad_check(f, params.tensors() + [hidden, ebar])
    assert err < 1e-7


def test_aspect_encoders_are_parameter_disjoint():
    rng = np.random.default_rng(8)
    hidden = Tensor(rng.normal(size=(3, 2)))
    mask = np.ones(3, bool)
    params = [make_params(2, 3, rng) for _ in range(2)]
    before = self_attention(hidden, params[1], mask).weights.values.copy()
    params[0].self_attn_w.values[:] = 0.0
    params[0].self_attn_b.values[...] = 0.0
    after = self_attention(hidden, params[1], mask).weights.values
    np.testing.assert_array_equal(before, after)

