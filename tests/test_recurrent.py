import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tape, Tensor, backward, grad_check
from aspectsent.recurrent import (
    GATES,
    HiddenStates,
    LstmParams,
    _run_direction,
    bilstm_forward,
    init_lstm_params,
)


def zero_params(input_width, cell_width):
    def z(*shape):
        return ad.parameter(np.zeros(shape))

    four = 4 * cell_width
    return LstmParams(w=z(input_width, four), u=z(cell_width, four), b=z(four))


def gate_block(values, g):
    """Gate g's column block of a fused w, u or b (or of its gradient)."""
    cell_width = values.shape[-1] // 4
    return values[..., g * cell_width:(g + 1) * cell_width]


def manual_step(x, h, c, p):
    def gate(g, squash):
        return squash(
            x @ gate_block(p.w.values, g) + h @ gate_block(p.u.values, g)
            + gate_block(p.b.values, g)
        )

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, o = gate(0, sig), gate(1, sig), gate(2, sig)
    cand = gate(3, np.tanh)
    c_new = f * c + i * cand
    return o * np.tanh(c_new), c_new


def manual_direction(xs, p):
    """One direction over the rows of xs, step by step with manual_step."""
    cell_width = p.cell_width
    h, c = np.zeros(cell_width), np.zeros(cell_width)
    rows = []
    for x in xs:
        h, c = manual_step(x, h, c, p)
        rows.append(h)
    return np.stack(rows)


def test_all_zero_parameters_give_zero_states():
    params = zero_params(4, 3)
    inputs = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    out = bilstm_forward(inputs, params, params, np.ones(5, dtype=bool))
    np.testing.assert_array_equal(out.values.values, np.zeros((5, 6)))


def test_single_step_matches_hand_formula():
    rng = np.random.default_rng(1)
    fwd, bwd = init_lstm_params(3, 2, rng), init_lstm_params(3, 2, rng)
    x = rng.normal(size=(1, 3))
    out = bilstm_forward(Tensor(x), fwd, bwd, [True]).values.values
    for half, params in ((out[0, :2], fwd), (out[0, 2:], bwd)):
        h, _ = manual_step(x[0], np.zeros(2), np.zeros(2), params)
        np.testing.assert_allclose(half, h, atol=1e-12)


def test_masked_padding_does_not_change_prefix():
    rng = np.random.default_rng(2)
    fwd, bwd = init_lstm_params(3, 2, rng), init_lstm_params(3, 2, rng)
    x = rng.normal(size=(3, 3))
    short = bilstm_forward(Tensor(x), fwd, bwd, [True, True, True])
    padded_x = np.vstack([x, rng.normal(size=(2, 3))])
    padded = bilstm_forward(Tensor(padded_x), fwd, bwd, [True, True, True, False, False])
    # both halves: the backward direction starts at the last unmasked position
    np.testing.assert_array_equal(
        short.values.values, padded.values.values[:3]
    )
    np.testing.assert_array_equal(padded.values.values[3:], np.zeros((2, 4)))


def test_width_mismatch_raises():
    rng = np.random.default_rng(0)
    fits, other = init_lstm_params(4, 2, rng), init_lstm_params(3, 2, rng)
    for fwd, bwd in ((other, fits), (fits, other)):  # either direction's width is checked
        with pytest.raises(ShapeError, match="input width 3"):
            bilstm_forward(Tensor(np.zeros((2, 4))), fwd, bwd, [True, True])


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

    fwd_only = manual_direction(x[:3], fwd)
    # reverse the unmasked prefix, run forward, reverse back
    rev = manual_direction(x[2::-1], bwd)[::-1]
    np.testing.assert_allclose(out[:3, :2], fwd_only[:3], atol=1e-12)
    np.testing.assert_allclose(out[:3, 2:], rev, atol=1e-12)
    np.testing.assert_array_equal(out[3], np.zeros(4))


def test_lstm_gradient_check():
    rng = np.random.default_rng(6)
    fwd, bwd = init_lstm_params(3, 3, rng), init_lstm_params(3, 3, rng)
    x = ad.parameter(rng.normal(size=(4, 3)))
    readout = Tensor(rng.normal(size=6))
    mask = np.array([True, True, True, False])  # padded, unlike the test below

    def f():
        states = bilstm_forward(x, fwd, bwd, mask)
        return ad.reduce_sum(ad.tanh(ad.matmul(states.values, readout)))

    err = grad_check(f, fwd.tensors() + bwd.tensors() + [x])
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
    return HiddenStates(ad.stack_rows([ad.concat([f, b]) for f, b in zip(rows_f, rows_b)]))


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
        fwd, bwd = init_lstm_params(3, 2, rng), init_lstm_params(3, 2, rng)
        x = Tensor(rng.normal(size=(3, 3)))
        return bilstm_forward(x, fwd, bwd, np.ones(3, bool)).values.values

    np.testing.assert_array_equal(run(), run())


def test_forget_bias_initialized_to_one():
    params = init_lstm_params(3, 4, np.random.default_rng(9))
    assert GATES[1] == "forget"
    np.testing.assert_array_equal(gate_block(params.b.values, 1), np.ones(4))


# The earlier layout, kept as the oracle: twelve tensors per direction, one
# w/u/b triple per gate, four matmuls and four row reads per step.


def per_gate_init(input_width, cell_width, rng):
    """The earlier initializer: per gate, draw w, u, b (forget b is ones)."""
    bound = 1.0 / np.sqrt(cell_width)
    shapes = {"w": (input_width, cell_width), "u": (cell_width, cell_width), "b": cell_width}
    params = {}
    for gate in GATES:
        for part in "wub":
            if gate == "forget" and part == "b":
                params[gate, part] = np.ones(cell_width)
            else:
                params[gate, part] = rng.uniform(-bound, bound, size=shapes[part])
    return params


def split_gates(params):
    """Per-gate parameter tensors holding copies of a fused direction's blocks."""
    return {
        (gate, part): ad.parameter(gate_block(getattr(params, part).values, g).copy())
        for g, gate in enumerate(GATES) for part in "wub"
    }


def per_gate_direction(inputs, p, mask, order):
    cell_width = p["input", "b"].values.shape[0]
    projected = {gate: ad.matmul(inputs, p[gate, "w"]) for gate in GATES}
    u_t = {gate: ad.transpose(p[gate, "u"]) for gate in GATES}

    def pre(gate, t, h):
        row = ad.gather_rows(projected[gate], t)
        return ad.add(ad.add(row, ad.matmul(u_t[gate], h)), p[gate, "b"])

    zero_row = Tensor(np.zeros(cell_width))
    h = c = zero_row
    rows = [zero_row] * len(mask)
    for t in order:
        if not mask[t]:
            continue
        i_gate, f_gate, o_gate = (ad.sigmoid(pre(g, t, h)) for g in ("input", "forget", "output"))
        cand = ad.tanh(pre("candidate", t, h))
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, ad.tanh(c))
        rows[t] = h
    return rows


def test_init_blocks_match_per_gate_draws():
    for input_width, cell_width in ((3, 4), (600, 64)):
        fused = init_lstm_params(input_width, cell_width, np.random.default_rng(11))
        per_gate = per_gate_init(input_width, cell_width, np.random.default_rng(11))
        assert len(fused.tensors()) == 3
        for g, gate in enumerate(GATES):
            for part in "wub":
                block = gate_block(getattr(fused, part).values, g)
                assert np.array_equal(block, per_gate[gate, part]), (gate, part)


def test_fused_direction_matches_per_gate_oracle():
    rng = np.random.default_rng(12)
    fwd, bwd = init_lstm_params(5, 4, rng), init_lstm_params(5, 4, rng)
    fwd_gates, bwd_gates = split_gates(fwd), split_gates(bwd)
    x = ad.parameter(rng.normal(size=(7, 5)))
    readout = Tensor(rng.normal(size=8))
    mask = np.array([True, True, True, True, True, False, False])  # padded

    def run(direction, forward_params, backward_params):
        ad.zero_grads([x])
        with Tape():
            rows_f = direction(x, forward_params, mask, range(len(mask)))
            rows_b = direction(x, backward_params, mask, range(len(mask) - 1, -1, -1))
            out = ad.concat([ad.stack_rows(rows_f), ad.stack_rows(rows_b)], axis=1)
            backward(ad.reduce_sum(ad.tanh(ad.matmul(out, readout))))
        return out.values, x.grad

    ad.zero_grads(fwd.tensors() + bwd.tensors())
    fused_out, fused_x_grad = run(_run_direction, fwd, bwd)
    oracle_out, oracle_x_grad = run(per_gate_direction, fwd_gates, bwd_gates)

    def close(got, expected):
        return np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    assert close(fused_out, oracle_out)
    assert np.array_equal(fused_out[5:], np.zeros((2, 8)))
    assert close(fused_x_grad, oracle_x_grad)
    for params, gates in ((fwd, fwd_gates), (bwd, bwd_gates)):
        for g, gate in enumerate(GATES):
            for part in "wub":
                got = gate_block(getattr(params, part).grad, g)
                assert close(got, gates[gate, part].grad), (gate, part)


@pytest.mark.parametrize(
    "mask", [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0]], ids=["full", "padded", "empty"]
)
def test_lstm_tape_op_count(mask):
    rng = np.random.default_rng(13)
    params = init_lstm_params(3, 2, rng)
    x = Tensor(rng.normal(size=(len(mask), 3)))
    steps = sum(mask)
    with Tape() as tape:
        _run_direction(x, params, np.asarray(mask, bool), range(len(mask)))
    # one input projection and one transpose per call, 16 ops per unmasked step
    assert len(tape) == 2 + 16 * steps
    with Tape() as tape:
        bilstm_forward(x, params, params, mask)
    assert len(tape) == 2 * (2 + 16 * steps) + 3  # two stack_rows and a concat
