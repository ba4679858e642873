import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tape, Tensor, backward, grad_check
from aspectsent.recurrent import (
    HiddenStates,
    LstmParams,
    _run_direction,
    bilstm_forward,
    init_lstm_params,
    lstm_forward,
)


def zero_params(input_width, cell_width):
    def z(*shape):
        return ad.parameter(np.zeros(shape))

    return LstmParams(
        input_gate_w=z(input_width, cell_width), input_gate_u=z(cell_width, cell_width),
        input_gate_b=z(cell_width),
        forget_gate_w=z(input_width, cell_width), forget_gate_u=z(cell_width, cell_width),
        forget_gate_b=z(cell_width),
        output_gate_w=z(input_width, cell_width), output_gate_u=z(cell_width, cell_width),
        output_gate_b=z(cell_width),
        candidate_w=z(input_width, cell_width), candidate_u=z(cell_width, cell_width),
        candidate_b=z(cell_width),
    )


def manual_step(x, h, c, p):
    def gate(w, u, b, squash):
        return squash(x @ w.values + h @ u.values + b.values)

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = gate(p.input_gate_w, p.input_gate_u, p.input_gate_b, sig)
    f = gate(p.forget_gate_w, p.forget_gate_u, p.forget_gate_b, sig)
    o = gate(p.output_gate_w, p.output_gate_u, p.output_gate_b, sig)
    cand = gate(p.candidate_w, p.candidate_u, p.candidate_b, np.tanh)
    c_new = f * c + i * cand
    return o * np.tanh(c_new), c_new


def test_all_zero_parameters_give_zero_states():
    params = zero_params(4, 3)
    inputs = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    out = lstm_forward(inputs, params, np.ones(5, dtype=bool))
    np.testing.assert_array_equal(out.values.values, np.zeros((5, 3)))


def test_single_step_matches_hand_formula():
    rng = np.random.default_rng(1)
    params = init_lstm_params(3, 2, rng)
    x = rng.normal(size=(1, 3))
    out = lstm_forward(Tensor(x), params, [True])
    h, _ = manual_step(x[0], np.zeros(2), np.zeros(2), params)
    np.testing.assert_allclose(out.values.values[0], h, atol=1e-12)


def test_masked_padding_does_not_change_prefix():
    rng = np.random.default_rng(2)
    params = init_lstm_params(3, 2, rng)
    x = rng.normal(size=(3, 3))
    short = lstm_forward(Tensor(x), params, [True, True, True])
    padded_x = np.vstack([x, rng.normal(size=(2, 3))])
    padded = lstm_forward(Tensor(padded_x), params, [True, True, True, False, False])
    np.testing.assert_array_equal(
        short.values.values, padded.values.values[:3]
    )
    np.testing.assert_array_equal(padded.values.values[3:], np.zeros((2, 2)))


def test_width_mismatch_raises():
    params = init_lstm_params(3, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lstm_forward(Tensor(np.zeros((2, 4))), params, [True, True])


def test_bilstm_width_is_double():
    rng = np.random.default_rng(3)
    fwd = init_lstm_params(3, 2, rng)
    bwd = init_lstm_params(3, 2, rng)
    out = bilstm_forward(Tensor(rng.normal(size=(4, 3))), fwd, bwd, np.ones(4, bool))
    assert out.values.values.shape == (4, 4)


def test_bilstm_palindrome_symmetry():
    rng = np.random.default_rng(4)
    params = init_lstm_params(3, 2, rng)
    row = rng.normal(size=3)
    x = np.stack([row, rng.normal(size=3), row])
    x[1] = x[1]  # middle arbitrary
    x = np.stack([x[0], x[1], x[1], x[0]])  # palindrome of length 4
    out = bilstm_forward(Tensor(x), params, params, np.ones(4, bool)).values.values
    fwd_half, bwd_half = out[:, :2], out[:, 2:]
    for t in range(4):
        np.testing.assert_allclose(fwd_half[t], bwd_half[4 - 1 - t], atol=1e-12)


def test_bilstm_matches_two_manual_directions():
    rng = np.random.default_rng(5)
    fwd = init_lstm_params(3, 2, rng)
    bwd = init_lstm_params(3, 2, rng)
    x = rng.normal(size=(4, 3))
    mask = np.array([True, True, True, False])
    out = bilstm_forward(Tensor(x), fwd, bwd, mask).values.values

    fwd_only = lstm_forward(Tensor(x), fwd, mask).values.values
    # reverse the unmasked prefix, run forward, reverse back
    rev = lstm_forward(Tensor(x[2::-1]), bwd, [True] * 3).values.values[::-1]
    np.testing.assert_allclose(out[:3, :2], fwd_only[:3], atol=1e-12)
    np.testing.assert_allclose(out[:3, 2:], rev, atol=1e-12)
    np.testing.assert_array_equal(out[3], np.zeros(4))


def test_lstm_gradient_check():
    rng = np.random.default_rng(6)
    params = init_lstm_params(3, 3, rng)
    x = ad.parameter(rng.normal(size=(4, 3)))
    readout = Tensor(rng.normal(size=3))
    mask = np.array([True, True, True, False])

    def f():
        states = lstm_forward(x, params, mask)
        return ad.reduce_sum(ad.tanh(ad.matmul(states.values, readout)))

    err = grad_check(f, params.tensors() + [x])
    assert err < 1e-4


def test_bilstm_gradient_check():
    rng = np.random.default_rng(7)
    fwd = init_lstm_params(2, 2, rng)
    bwd = init_lstm_params(2, 2, rng)
    x = ad.parameter(rng.normal(size=(3, 2)))
    readout = Tensor(rng.normal(size=4))

    def f():
        states = bilstm_forward(x, fwd, bwd, np.ones(3, bool))
        return ad.reduce_sum(ad.tanh(ad.matmul(states.values, readout)))

    err = grad_check(f, fwd.tensors() + bwd.tensors() + [x])
    assert err < 1e-4


def per_position_bilstm(inputs, fwd, bwd, mask):
    """The earlier composition: one concat per position, then one stack."""
    rows_f = _run_direction(inputs, fwd, mask, range(len(mask)))
    rows_b = _run_direction(inputs, bwd, mask, range(len(mask) - 1, -1, -1))
    return HiddenStates(ad.stack_rows([ad.concat([f, b]) for f, b in zip(rows_f, rows_b)]), mask)


def test_bilstm_matches_per_position_concat_oracle():
    rng = np.random.default_rng(10)
    fwd, bwd = init_lstm_params(3, 4, rng), init_lstm_params(3, 4, rng)
    x = ad.parameter(rng.normal(size=(6, 3)))
    readout = Tensor(rng.normal(size=8))
    mask = np.array([True, True, True, True, False, False])  # padded
    tensors = fwd.tensors() + bwd.tensors() + [x]
    results = []
    for build in (bilstm_forward, per_position_bilstm):
        ad.zero_grads(tensors)
        with Tape():
            out = build(x, fwd, bwd, mask).values
            backward(ad.reduce_sum(ad.tanh(ad.matmul(out, readout))))
        results.append([out.values] + [t.grad for t in tensors])
    for got, expected in zip(*results):
        assert np.array_equal(got, expected)


def test_determinism_under_fixed_seed():
    def run():
        rng = np.random.default_rng(8)
        params = init_lstm_params(3, 2, rng)
        x = Tensor(rng.normal(size=(3, 3)))
        return lstm_forward(x, params, np.ones(3, bool)).values.values

    np.testing.assert_array_equal(run(), run())


def test_forget_bias_initialized_to_one():
    params = init_lstm_params(3, 4, np.random.default_rng(9))
    np.testing.assert_array_equal(params.forget_gate_b.values, np.ones(4))
