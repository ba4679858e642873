from types import SimpleNamespace

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent import model
from aspectsent.autodiff import ShapeError, Tape, Tensor, backward
from aspectsent.embeddings import PAD_ID, EmbeddingTables, embed_sequence, random_tables
from aspectsent.recurrent import GATES, HiddenStates, LstmParams, bilstm_forward, init_lstm_params
from tests.gradcheck import grad_check, tanh


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
        return ad.reduce_sum(tanh(ad.matmul(states.values, readout)))

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
        return ad.reduce_sum(tanh(ad.matmul(states.values, readout)))

    err = grad_check(f, fwd.tensors() + bwd.tensors() + [x])
    assert err < 1e-4


# The oracles keep the piecewise logistic function, so they stay independent
# of the tanh form the op computes it with.


def stable_sigmoid(x):
    """Elementwise logistic function of an array, without overflow.

    The piecewise form never takes exp of a positive number, so it stays
    finite for large |x|.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    """The logistic function as one tape op, which only the oracles use."""
    y = stable_sigmoid(a.values)
    return ad.record((a,), y, lambda g: (g * y * (1.0 - y),))


def read_rows(x, index):
    """``x[index]`` as one tape op, which only the oracles use: an int reads
    one row of a matrix, and an int vector one row per index."""
    idx = np.asarray(index, dtype=np.int64)

    def grad_fn(g):
        dx = np.zeros(x.values.shape)
        np.add.at(dx, idx, g)
        return (dx,)

    return ad.record((x,), x.values[idx], grad_fn)


def test_oracle_sigmoid_gradient():
    a = ad.parameter(np.random.default_rng(12).normal(size=4) * 3)
    assert stable_sigmoid(np.float64(0.0)) == 0.5
    assert sigmoid(Tensor(0.0)).item() == 0.5
    assert grad_check(lambda: ad.reduce_sum(sigmoid(a)), [a]) < 1e-9


def test_oracle_row_read_gradient():
    m = ad.parameter(np.random.default_rng(13).normal(size=(4, 3)))
    assert grad_check(lambda: ad.reduce_sum(tanh(read_rows(m, [2, 0, 2]))), [m]) < 1e-9
    assert grad_check(lambda: ad.reduce_sum(tanh(read_rows(m, 1))), [m]) < 1e-9


# One direction as one tape op, as the encoder ran before both directions
# shared a loop: kept as the oracle for the lockstep op.


def lstm_direction(inputs, params, steps):
    """Run one direction over the input rows ``steps``, in that order, as one tape op.

    Returns a T x H matrix whose row ``steps[j]`` is the state after step
    j; every other row is exactly zero. Each step computes
    ``z = (x w + uᵀh) + b``, squashes the gate blocks of z, then updates
    c and h. The backward pass runs backpropagation through time over the
    gate activations and cell states the forward pass keeps.
    """
    steps = np.asarray(steps, dtype=np.int64)
    x, w, u, b = inputs.values, params.w.values, params.u.values, params.b.values
    H, n = params.cell_width, len(steps)
    projected = (x @ w)[steps]
    u_t = u.T.copy()
    gates = np.empty((n, 3 * H))  # sigmoid of the input, forget and output blocks
    cand = np.empty((n, H))
    cells = np.zeros((n + 1, H))  # cells[j + 1] is c after step j
    tanh_c = np.empty((n, H))
    states = np.zeros((n + 1, H))  # states[j] is h before step j
    for j in range(n):
        z = (projected[j] + u_t @ states[j]) + b
        gates[j] = stable_sigmoid(z[:3 * H])
        cand[j] = np.tanh(z[3 * H:])
        cells[j + 1] = gates[j, H:2 * H] * cells[j] + gates[j, :H] * cand[j]
        tanh_c[j] = np.tanh(cells[j + 1])
        states[j + 1] = gates[j, 2 * H:] * tanh_c[j]
    out = np.zeros((x.shape[0], H))
    out[steps] = states[1:]

    def grad_fn(g):
        i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:]
        # per step, dz = [dc, dc, dh, dc] * scale, block by block (i, f, o, candidate)
        scale = np.concatenate(
            [cand * i * (1.0 - i), cells[:-1] * f * (1.0 - f), tanh_c * o * (1.0 - o),
             i * (1.0 - cand * cand)],
            axis=1,
        )
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        g_rows = g[steps]
        dz = np.empty((n, 4 * H))
        dh_next, dc_next = np.zeros(H), np.zeros(H)  # what step j + 1 passes back
        for j in range(n - 1, -1, -1):
            dh = dh_next + g_rows[j]
            dc = dh * h_to_c[j] + dc_next
            dz[j] = np.concatenate([dc, dc, dh, dc]) * scale[j]
            dc_next = dc * f[j]
            dh_next = u @ dz[j]
        dx = np.zeros(x.shape)
        dx[steps] = dz @ w.T
        return dx, x[steps].T @ dz, states[:-1].T @ dz, np.sum(dz, axis=0)

    return ad.record((inputs, params.w, params.u, params.b), out, grad_fn)


def direction_pair_bilstm(inputs, fwd, bwd, mask):
    """The encoder as two direction ops and one concat."""
    steps = np.flatnonzero(np.asarray(mask, dtype=bool))
    return HiddenStates(ad.concat(
        [lstm_direction(inputs, fwd, steps), lstm_direction(inputs, bwd, steps[::-1])], axis=1
    ))


# The composed cell, kept as the oracle for the fused op: one weight block
# per direction, and 16 autodiff ops per unmasked step.


def composed_direction(inputs, params, mask, order):
    """Run one direction over the given step order; returns per-position rows.

    Masked positions yield a shared zero row and do not advance the state.
    """
    H = params.cell_width
    projected = ad.matmul(inputs, params.w)
    # int-vector indices of the gate blocks in z, and of i, f, o in sigmoid(z[:3H])
    sigmoid_part, cand_part = np.arange(3 * H), np.arange(3 * H, 4 * H)
    ifo_parts = [np.arange(g * H, (g + 1) * H) for g in range(3)]

    zero_row = Tensor(np.zeros(H))
    h = c = zero_row
    rows = [zero_row] * len(mask)
    for t in order:
        if not mask[t]:
            continue
        z = ad.add(ad.add(read_rows(projected, t), ad.matmul(h, params.u)), params.b)
        gates = sigmoid(read_rows(z, sigmoid_part))
        cand = tanh(read_rows(z, cand_part))
        i_gate, f_gate, o_gate = (read_rows(gates, part) for part in ifo_parts)
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, tanh(c))
        rows[t] = h
    return rows


def stack_rows(rows):
    """Equal-shape vectors as the rows of a matrix, in one recorded op."""
    return ad.record(tuple(rows), np.stack([r.values for r in rows]), tuple)


def composed_bilstm(inputs, fwd, bwd, mask):
    """The encoder as the composed cell built it: two stacks and one concat."""
    mask = np.asarray(mask, dtype=bool)
    rows_f = composed_direction(inputs, fwd, mask, range(len(mask)))
    rows_b = composed_direction(inputs, bwd, mask, range(len(mask) - 1, -1, -1))
    return HiddenStates(ad.concat([stack_rows(rows_f), stack_rows(rows_b)], axis=1))


def per_position_bilstm(inputs, fwd, bwd, mask):
    """The earlier composition: one concat per position, then one stack."""
    mask = np.asarray(mask, dtype=bool)
    rows_f = composed_direction(inputs, fwd, mask, range(len(mask)))
    rows_b = composed_direction(inputs, bwd, mask, range(len(mask) - 1, -1, -1))
    return HiddenStates(stack_rows([ad.concat([f, b]) for f, b in zip(rows_f, rows_b)]))


def within(got, expected, rel):
    """max |got - expected| at most rel times max |expected|."""
    largest = np.max(np.abs(expected), initial=0.0)
    return np.max(np.abs(got - expected), initial=0.0) <= rel * largest


ORACLE_MASKS = {
    "full": [1] * 6, "padded": [1] * 4 + [0] * 2, "single-step": [0, 0, 1, 0, 0, 0],
    "all-masked": [0] * 6,
}


def check_against_oracle(oracle, seed):
    """Outputs within 1e-12 relative of the oracle's, gradients within 1e-10."""
    rng = np.random.default_rng(seed)
    fwd, bwd = init_lstm_params(3, 4, rng), init_lstm_params(3, 4, rng)
    x = ad.parameter(rng.normal(size=(6, 3)))
    readout = Tensor(rng.normal(size=8))
    tensors = fwd.tensors() + bwd.tensors() + [x]
    for label, mask in ORACLE_MASKS.items():
        mask = np.asarray(mask, dtype=bool)
        results = []
        for build in (bilstm_forward, oracle):
            ad.zero_grads(tensors)
            with Tape():
                out = build(x, fwd, bwd, mask).values
                backward(ad.reduce_sum(tanh(ad.matmul(out, readout))))
            results.append((out.values, [ad.dense_grad(t) for t in tensors]))
        (fused_out, fused_grads), (oracle_out, oracle_grads) = results
        assert within(fused_out, oracle_out, 1e-12), label
        assert not np.any(fused_out[~mask]), label
        for got, expected in zip(fused_grads, oracle_grads):
            assert within(got, expected, 1e-10), label


def test_bilstm_matches_per_position_concat_oracle():
    check_against_oracle(per_position_bilstm, 10)


def test_bilstm_matches_direction_pair_oracle():
    check_against_oracle(direction_pair_bilstm, 15)


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

    def pre(gate, t, h):
        row = read_rows(projected[gate], t)
        return ad.add(ad.add(row, ad.matmul(h, p[gate, "u"])), p[gate, "b"])

    zero_row = Tensor(np.zeros(cell_width))
    h = c = zero_row
    rows = [zero_row] * len(mask)
    for t in order:
        if not mask[t]:
            continue
        i_gate, f_gate, o_gate = (sigmoid(pre(g, t, h)) for g in ("input", "forget", "output"))
        cand = tanh(pre("candidate", t, h))
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, tanh(c))
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
    """Outputs within 1e-12 relative, gradients within 1e-10, block by block."""
    rng = np.random.default_rng(12)
    fwd, bwd = init_lstm_params(5, 4, rng), init_lstm_params(5, 4, rng)
    fwd_gates, bwd_gates = split_gates(fwd), split_gates(bwd)
    x = ad.parameter(rng.normal(size=(7, 5)))
    readout = Tensor(rng.normal(size=8))
    masks = {"full": [1] * 7, "padded": [1] * 5 + [0] * 2, "all-masked": [0] * 7}
    for label, mask in masks.items():
        mask = np.asarray(mask, dtype=bool)

        def fused():
            return bilstm_forward(x, fwd, bwd, mask).values

        def per_gate():
            rows_f = per_gate_direction(x, fwd_gates, mask, range(len(mask)))
            rows_b = per_gate_direction(x, bwd_gates, mask, range(len(mask) - 1, -1, -1))
            return ad.concat([stack_rows(rows_f), stack_rows(rows_b)], axis=1)

        ad.zero_grads(fwd.tensors() + bwd.tensors())
        ad.zero_grads(list(fwd_gates.values()) + list(bwd_gates.values()))
        results = []
        for build in (fused, per_gate):
            ad.zero_grads([x])
            with Tape():
                out = build()
                backward(ad.reduce_sum(tanh(ad.matmul(out, readout))))
            results.append((out.values, ad.dense_grad(x)))
        (fused_out, fused_x_grad), (oracle_out, oracle_x_grad) = results

        assert within(fused_out, oracle_out, 1e-12), label
        assert not np.any(fused_out[~mask]), label
        assert within(fused_x_grad, oracle_x_grad, 1e-10), label
        for params, gates in ((fwd, fwd_gates), (bwd, bwd_gates)):
            for g, gate in enumerate(GATES):
                for part in "wub":
                    got = gate_block(getattr(params, part).grad, g)
                    assert within(got, ad.dense_grad(gates[gate, part]), 1e-10), (label, gate, part)


@pytest.mark.parametrize(
    "mask", [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0]], ids=["full", "padded", "empty"]
)
def test_lstm_tape_op_count(mask):
    rng = np.random.default_rng(13)
    params = init_lstm_params(3, 2, rng)
    x = Tensor(rng.normal(size=(len(mask), 3)))
    with Tape() as tape:
        bilstm_forward(x, params, params, mask)
    assert len(tape) == 1  # both directions, whatever the number of steps


@pytest.mark.parametrize("length, padded", [(73, 73), (3, 8)], ids=["t73", "t3-padded-to-8"])
def test_model_loss_and_gradients_match_composed_encoder(monkeypatch, length, padded):
    """At paper widths, the hidden states and the combined loss are within 1e-12
    relative of the composed cell's, and every parameter gradient within 1e-10."""
    config = model.ModelConfig(aspect_names=["food", "service", "price", "ambience"])
    params = model.init_params(config, vocab_size=40, seed=0)
    rng = np.random.default_rng(14)
    mask = np.arange(padded) < length
    example = SimpleNamespace(
        token_ids=np.where(mask, rng.integers(2, 40, size=padded), 0), mask=mask,
        overall_label=1, aspect_labels=np.array([1, 0, -1, 1]),
    )
    runs, states = [], []

    def keeping_states(encoder):
        def run(*args):
            hidden = encoder(*args)
            states.append(hidden.values.values)
            return hidden
        return run

    for encoder in (bilstm_forward, composed_bilstm):
        monkeypatch.setattr(model, "bilstm_forward", keeping_states(encoder))
        ad.zero_grads(params.tensors())
        with Tape():
            output = model.forward(example, params, config)
            loss, _ = model.combined_loss(output, example, params, config)
            backward(loss)
        runs.append((loss.item(), [ad.dense_grad(t) for t in params.tensors()]))
    (fused_loss, fused_grads), (composed_loss, composed_grads) = runs
    assert within(*states, 1e-12)
    assert abs(fused_loss - composed_loss) <= 1e-12 * abs(composed_loss)
    for (name, _), got, expected in zip(params.named_tensors(), fused_grads, composed_grads):
        assert within(got, expected, 1e-10), name


def test_forward_is_bit_equal_with_and_without_tape():
    rng = np.random.default_rng(16)
    fwd, bwd = init_lstm_params(5, 4, rng), init_lstm_params(5, 4, rng)
    x = Tensor(rng.normal(size=(9, 5)))
    mask = np.arange(9) < 7
    untaped = bilstm_forward(x, fwd, bwd, mask).values.values
    with Tape():
        taped = bilstm_forward(x, fwd, bwd, mask).values.values
    assert np.array_equal(untaped, taped)


def test_masked_rows_of_both_halves_are_zero():
    rng = np.random.default_rng(17)
    fwd, bwd = init_lstm_params(3, 4, rng), init_lstm_params(3, 4, rng)
    x = ad.parameter(rng.normal(size=(8, 3)))
    mask = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=bool)
    with Tape():
        out = bilstm_forward(x, fwd, bwd, mask).values
        backward(ad.reduce_sum(tanh(out)))
    assert np.array_equal(out.values[~mask], np.zeros((4, 8)))
    assert np.all(out.values[mask, :4] != 0) and np.all(out.values[mask, 4:] != 0)
    assert np.array_equal(x.grad[~mask], np.zeros((4, 3)))  # masked inputs are never read


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus-800", "minus-800"])
def test_saturated_preactivations_give_finite_gates_and_gradients(sign):
    """Every pre-activation near ±800: each gate sits at exactly 0 or 1, without overflow."""
    rng = np.random.default_rng(18)
    fwd, bwd = init_lstm_params(3, 4, rng), init_lstm_params(3, 4, rng)
    for params in (fwd, bwd):
        params.b.values[:] = sign * 800.0
    x = ad.parameter(rng.normal(size=(5, 3)))
    with np.errstate(all="raise"), Tape():
        out = bilstm_forward(x, fwd, bwd, np.ones(5, dtype=bool)).values
        backward(ad.reduce_sum(tanh(out)))
    # i = f = o = 1 and a candidate of 1 make c count the steps; all gates 0 give h = 0
    expected = np.tanh(np.arange(1.0, 6.0)) if sign > 0 else np.zeros(5)
    assert np.array_equal(out.values[:, :4], np.repeat(expected[:, None], 4, axis=1))
    assert np.array_equal(out.values[::-1, 4:], out.values[:, :4])
    for t in fwd.tensors() + bwd.tensors() + [x]:
        assert np.all(np.isfinite(t.grad)), t.name


def test_cell_width_mismatch_raises():
    rng = np.random.default_rng(19)
    narrow, wide = init_lstm_params(3, 2, rng), init_lstm_params(3, 3, rng)
    for fwd, bwd in ((narrow, wide), (wide, narrow)):
        with pytest.raises(ShapeError, match="cell width"):
            bilstm_forward(Tensor(np.zeros((2, 3))), fwd, bwd, [True, True])


# A lookup input (``embed_sequence``'s rows, with their ids and tables) against
# the plain-Tensor path on a leaf copy of the same rows, whose gradient the
# test scatters into the tables by id and by column.

LOOKUP_CASES = {
    # repeated ids, padding at the ends and a hole in row 2
    "padded": ([[3, 1, 3, 3, 5, 1], [1, 1, 4, 0, 0, 0], [2, 0, 2, 6, 0, 0]],
               [[1] * 6, [1, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 0]]),
    "length-1-row": ([[4, 2, 4], [6, 0, 0]], [[1, 1, 1], [1, 0, 0]]),
    "length-1-sequence": ([5], [1]),
    "max-length": ([[1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 5, 6], [6] * 12], [[1] * 12] * 2),
}


def lookup_and_plain_gradients(ids, mask, d, H, seed):
    """Hidden states and every gradient through a lookup input, then through a
    plain leaf holding the same rows, the leaf's gradient scattered by id
    and column; the tables hold 7 word rows and 12 positions."""
    rng = np.random.default_rng(seed)
    tables = random_tables(7, d, 12, rng)
    fwd, bwd = init_lstm_params(2 * d, H, rng), init_lstm_params(2 * d, H, rng)
    readout = Tensor(rng.normal(size=(2 * H, 3)))
    ids, mask = np.asarray(ids), np.asarray(mask, dtype=bool)
    lstm = fwd.tensors() + bwd.tensors()
    results = []
    for plain in (False, True):
        ad.zero_grads(lstm + [tables.word, tables.position])
        with Tape():
            embedded = embed_sequence(ids, tables)
            x = ad.parameter(embedded.values.copy()) if plain else embedded
            out = bilstm_forward(x, fwd, bwd, mask).values
            backward(ad.reduce_sum(tanh(ad.matmul(out, readout))))
        if plain:
            d_x = x.grad.reshape(-1, 2 * d)
            columns = np.broadcast_to(np.arange(ids.shape[-1]), ids.shape).ravel()
            word, position = np.zeros((7, d)), np.zeros((12, d))
            np.add.at(word, ids.ravel(), d_x[:, :d])
            np.add.at(position, columns, d_x[:, d:])
        else:
            word, position = ad.dense_grad(tables.word), ad.dense_grad(tables.position)
        results.append((out.values, [ad.dense_grad(t) for t in lstm] + [word, position]))
    return results


@pytest.mark.parametrize("case", list(LOOKUP_CASES))
def test_lookup_input_matches_the_plain_rows_path(case):
    """At paper widths the hidden states are the same bits, and every gradient,
    the tables' included, agrees within 1e-10 relative."""
    ids, mask = LOOKUP_CASES[case]
    (lookup_out, lookup_grads), (plain_out, plain_grads) = lookup_and_plain_gradients(
        ids, mask, d=300, H=64, seed=20
    )
    assert np.array_equal(lookup_out, plain_out)
    for got, expected in zip(lookup_grads, plain_grads):
        assert within(got, expected, 1e-10), case


def test_lookup_gradient_check_through_both_tables():
    rng = np.random.default_rng(22)
    tables = EmbeddingTables(word=ad.parameter(rng.normal(size=(5, 3))),
                             position=ad.parameter(rng.normal(size=(4, 3))))
    fwd, bwd = init_lstm_params(6, 2, rng), init_lstm_params(6, 2, rng)
    ids = np.array([[1, 2, 2, 4], [3, 2, 0, 0], [4, 0, 0, 0]])  # repeats, padding, one token
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]], dtype=bool)
    readout = Tensor(rng.normal(size=(4, 3)))

    def f():
        out = bilstm_forward(embed_sequence(ids, tables), fwd, bwd, mask).values
        return ad.reduce_sum(tanh(ad.matmul(out, readout)))

    assert grad_check(f, [tables.word, tables.position] + fwd.tensors() + bwd.tensors()) < 1e-6


@pytest.mark.parametrize("disable_position_attention", [True, False],
                         ids=["bilstm-only", "with-mean-embedding"])
def test_model_table_gradients_are_the_batch_rows_and_one_bilstm_op(disable_position_attention):
    """Through ``model.forward`` on a padded batch, each table's gradient is a
    ``RowGrad`` over the batch's distinct real ids and positions, with or
    without the mean embedding, whose scatter skips the padding id. The
    BiLSTM is one op."""
    config = model.ModelConfig(aspect_names=["food", "service"], embedding_width=4,
                               cell_width=3, max_length=8,
                               disable_position_attention=disable_position_attention)
    params = model.init_params(config, vocab_size=12, seed=3)
    mask = np.arange(6) < np.array([[6], [3], [1]])
    ids = np.where(mask, [[2, 5, 2, 9, 5, 11], [7, 2, 7, 3, 3, 3], [10, 4, 4, 4, 4, 4]], PAD_ID)
    batch = SimpleNamespace(token_ids=ids, mask=mask, overall_label=np.array([1, 0, 1]),
                            aspect_labels=np.array([[1, 0], [0, -1], [1, 1]]))
    with Tape() as tape:
        output = model.forward(batch, params, config)
        loss, _ = model.combined_loss(output, batch, params, config)
        backward(loss)
    word, position = params.tables.word.grad, params.tables.position.grad
    assert isinstance(word, ad.RowGrad) and isinstance(position, ad.RowGrad)
    np.testing.assert_array_equal(word.rows, np.unique(ids[mask]))
    np.testing.assert_array_equal(position.rows, np.arange(6))
    assert sum(any(t is params.lstm_fwd.w for t in op.inputs) for op in tape.ops) == 1
