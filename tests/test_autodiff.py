import gc
import importlib
import inspect
import pkgutil
import re
import weakref
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectsent
from aspectsent import autodiff as ad
from aspectsent import embeddings, model, recurrent
from aspectsent.attention import (
    AspectAttentionParams,
    AttentionTrace,
    attention_weights,
    position_aware_attention,
    self_attention,
)
from aspectsent.autodiff import (
    EmptyAttentionError,
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
)
from tests import gradcheck
from tests.gradcheck import concat, grad_check, mul, product, tanh


def test_matmul_identity():
    # one-hot weights pick a row; each batch row's weights read its own rows
    rows = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(Tensor([0.0, 1.0]), rows).values, [3.0, 4.0])
    batch = Tensor(np.arange(8.0).reshape(2, 2, 2))
    out = ad.matmul(Tensor(np.eye(2)), batch)
    assert np.array_equal(out.values, [[0.0, 1.0], [6.0, 7.0]])


def test_matmul_hand_computed():
    out = ad.matmul(Tensor([1.0, 2.0]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1,)
    assert out.values[0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)
    # weights over rows only: no matrix product, no vector on the right
    for a, b in ((np.zeros(2), np.zeros((3, 2))), (np.zeros(3), np.zeros(3)),
                 (np.zeros((2, 3)), np.zeros((3, 4))), (np.zeros((2, 3, 4)), np.zeros((4, 2))),
                 (np.zeros((2, 3)), np.zeros(3)), (np.zeros((2, 3)), np.zeros((2, 4, 5)))):
        with pytest.raises(ShapeError, match="^matmul: "):
            ad.matmul(Tensor(a), Tensor(b))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    w = ad.parameter(rng.normal(size=3))
    rows = ad.parameter(rng.normal(size=(3, 4)))
    err = grad_check(lambda: ad.reduce_sum(ad.matmul(w, rows)), [w, rows])
    assert err < 1e-9
    # the gradient of sum(w @ rows) is each row's sum for w, and w down every column for rows
    ad.zero_grads([w, rows])
    with Tape():
        backward(ad.reduce_sum(ad.matmul(w, rows)))
    np.testing.assert_allclose(w.grad, rows.values.sum(axis=1), atol=1e-12)
    np.testing.assert_array_equal(rows.grad, np.tile(w.values[:, None], (1, 4)))


def test_tanh_at_zero():
    assert tanh(Tensor(0.0)).item() == 0.0


def test_tanh_derivative_matches_central_difference():
    x = ad.parameter(1.0)
    h = 1e-6
    with Tape():
        backward(tanh(x))
    numeric = (np.tanh(1 + h) - np.tanh(1 - h)) / (2 * h)
    assert abs(float(x.grad) - numeric) < 1e-6


def test_scalar_broadcast_add_and_grad():
    v = ad.parameter([1.0, 2.0, 3.0])
    b = ad.parameter(0.5)
    with Tape():
        out = ad.add(v, b)
        np.testing.assert_allclose(out.values, [1.5, 2.5, 3.5])
        backward(ad.reduce_sum(out))
    assert float(b.grad) == 3.0
    np.testing.assert_array_equal(v.grad, np.ones(3))


# the attention stages' weights: a masked softmax of tanh(scores + b)


def test_masked_softmax_uniform_and_single():
    out, _ = attention_weights([0.3, 0.3], -0.2, [True, True])
    np.testing.assert_allclose(out, [0.5, 0.5])
    for x in (-50.0, 0.0, 123.0):
        assert attention_weights([x], 0.5, [True])[0][0] == 1.0


def test_masked_softmax_matches_direct_renormalization():
    out, _ = attention_weights([1.0, 2.0, 3.0], -0.5, [True, True, False])
    logits = np.tanh([0.5, 1.5])
    direct = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(out[:2], direct, atol=1e-15)
    assert out[2] == 0.0


def test_masked_softmax_empty_mask():
    with pytest.raises(EmptyAttentionError, match="^attention_weights: "):
        attention_weights([1.0, 2.0], 0.0, [False, False])
    with pytest.raises(EmptyAttentionError):  # one empty row of a batch
        attention_weights(np.ones((2, 2)), 0.0, [[True, False], [False, False]])


def test_attention_weights_rejects_a_mask_of_another_shape():
    for scores, mask in ((np.ones(3), [True, True]), (np.ones((2, 3)), [True] * 3),
                         (np.float64(1.0), True)):
        with pytest.raises(ShapeError, match="^attention_weights: "):
            attention_weights(scores, 0.0, mask)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-5, max_value=5),
    st.data(),
)
def test_masked_softmax_properties(scores, bias, data):
    mask = np.asarray(data.draw(
        st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)).filter(any)
    ))
    out, _ = attention_weights(scores, bias, mask)
    assert np.all(out >= 0)
    assert np.all(out[~mask] == 0.0)
    assert abs(out[mask].sum() - 1.0) <= 1e-9
    # the shift by the row's unmasked maximum leaves the result unchanged
    e = np.exp(np.tanh(np.asarray(scores) + bias)[mask])
    np.testing.assert_allclose(out[mask], e / e.sum(), atol=1e-12)


def test_sum_of_softmax_is_one():
    out, _ = attention_weights([0.3, -1.2, 2.0], 0.1, [1, 1, 1])
    assert abs(out.sum() - 1.0) < 1e-12


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        ad.reduce_sum(Tensor([[1.0]]), axis=2)


def test_backward_square():
    x = ad.parameter(3.0)
    with Tape():
        backward(mul(x, x))
    assert float(x.grad) == 6.0


def test_backward_accumulates_without_zeroing():
    x = ad.parameter(3.0)
    with Tape():
        backward(mul(x, x))
    with Tape():
        backward(mul(x, x))
    assert float(x.grad) == 12.0


def test_two_roots_on_one_tape_sum_their_gradients():
    x = ad.parameter([0.3, -0.7])
    with Tape():
        y = tanh(x)
        backward(ad.reduce_sum(y))
        backward(ad.reduce_sum(mul(y, y)))
    t = np.tanh(x.values)
    np.testing.assert_allclose(x.grad, (1 - t * t) * (1 + 2 * t), rtol=1e-14)


def test_backward_leaves_gradients_on_leaves_only():
    a, b = ad.parameter([[1.0, 2.0], [3.0, 4.0]]), ad.parameter([0.5, -1.0])
    with Tape() as tape:
        backward(ad.reduce_sum(tanh(product(a, b))))
    assert a.grad is not None and b.grad is not None
    assert all(op.output.grad is None for op in tape.ops)


def test_backward_matvec_outer_structure():
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(3, 2)))
    v = ad.parameter(rng.normal(size=2))
    err = grad_check(lambda: ad.reduce_sum(product(w, v)), [w, v])
    assert err < 1e-9


def test_backward_requires_scalar_root():
    with Tape():
        out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(GraphError):
            backward(out)


def test_backward_requires_tape():
    out = mul(Tensor(2.0), Tensor(3.0))
    with pytest.raises(GraphError):
        backward(out)


def test_finished_tape_is_freed_without_the_cycle_collector():
    x = ad.parameter(3.0)
    gc.disable()
    try:
        with Tape() as tape:
            root = mul(tanh(x), x)
            backward(root)
            assert len(root.tape) == 2
        alive = weakref.ref(tape)
        del tape
        # only reference counting ran: the outputs kept no strong path to the tape
        assert alive() is None
    finally:
        gc.enable()
    with pytest.raises(GraphError):
        backward(root)


def test_grad_check_linear_is_near_exact():
    v = ad.parameter([1.0, -2.0, 0.5])
    assert grad_check(lambda: ad.reduce_sum(mul(v, Tensor(3.0))), [v]) < 1e-9


def test_grad_check_tanh_matmul_composition():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.normal(size=(3, 3)))
    b = ad.parameter(rng.normal(size=(3, 2)))
    err = grad_check(lambda: ad.reduce_sum(tanh(product(a, b))), [a, b])
    assert err < 1e-6


# One case per operation, plus "op-variant" cases for other operand forms;
# a "-batch" case gives the operation a leading batch axis.
GRAD_CHECK_CASES = [
    "add", "mul", "mul-constant", "add-batch", "mul-batch", "tanh",
    "product", "product-vector", "product-batch", "product-vector-batch",
    "matmul-vector-left", "matmul-vector-left-batch",
    "reduce_sum", "concat", "scale_rows", "scale_rows-batch",
    "embed_sequence", "embed_sequence-batch",
    "self_attention", "self_attention-batch",
    "position_aware_attention", "position_aware_attention-batch",
    "bilstm_forward", "bilstm_forward-padded", "bilstm_forward-batch",
    "heads", "heads-batch", "combined_loss", "combined_loss-batch",
]


def test_every_tape_op_has_a_grad_check_case():
    # every function, in any module of the package or in the checks' own
    # helpers (their tanh root and the composed references' ops), that calls
    # record or ad.record
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(aspectsent.__path__, "aspectsent.")
    ] + [gradcheck]
    recorders = {
        name
        for module in modules
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and name != "record"
        and re.search(r"(?<![\w.])(ad\.)?record\(", inspect.getsource(fn))
    }
    assert recorders == {case.split("-")[0] for case in GRAD_CHECK_CASES}


@pytest.mark.parametrize("name", GRAD_CHECK_CASES)
def test_grad_check_every_operation(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    def vec(n=4):
        return ad.parameter(rng.normal(size=n))

    def mat(r=3, c=4):
        return ad.parameter(rng.normal(size=(r, c)))

    if name in ("add", "mul"):
        a, b = vec(), vec()
        fn = {"add": ad.add, "mul": mul}[name]
        inputs, f = [a, b], lambda: ad.reduce_sum(tanh(fn(a, b)))
    elif name in ("add-batch", "mul-batch"):  # b broadcast over a's leading axes
        a, b = ad.parameter(rng.normal(size=(2, 3, 4))), mat(3, 4)
        fn = {"add-batch": ad.add, "mul-batch": mul}[name]
        inputs, f = [a, b], lambda: ad.reduce_sum(tanh(fn(a, b)))
    elif name == "tanh":
        a = vec()
        inputs, f = [a], lambda: ad.reduce_sum(tanh(a))
    elif name == "mul-constant":
        a = vec()
        inputs, f = [a], lambda: ad.reduce_sum(tanh(mul(a, Tensor(-1.7))))
    elif name.startswith("heads"):  # K=2 contexts of width 3; the batch's readout drops head 1
        lead = (2,) if name.endswith("batch") else ()
        contexts = [ad.parameter(rng.normal(size=lead + (3,))) for _ in range(2)]
        heads = [model.HeadParams(mat(3, 2), vec(2)) for _ in range(2)]
        params = SimpleNamespace(aspect_heads=heads, overall_head=model.HeadParams(mat(6, 2), vec(2)))
        readout = rng.normal(size=lead + (3, 2))
        if lead:
            readout[..., 1, :] = 0.0
        inputs = contexts + [t for head in heads + [params.overall_head] for t in head.tensors()]
        f = lambda: ad.reduce_sum(tanh(mul(model.heads(contexts, params), Tensor(readout))))
    elif name.startswith("combined_loss"):  # K=2 over 5 positions; the batch rates no aspect 1
        lead = (3,) if name.endswith("batch") else ()
        logits = ad.parameter(rng.normal(size=lead + (3, 2)))
        traces = [AttentionTrace(*(ad.parameter(rng.uniform(0.1, 1.0, size=lead + (5,)))
                                   for _ in range(2)), None) for _ in range(2)]
        if lead:
            record = SimpleNamespace(overall_label=np.array([1, 0, 1]),
                                     aspect_labels=np.array([[0, -1], [1, -1], [-1, -1]]))
        else:
            record = SimpleNamespace(overall_label=1, aspect_labels=np.array([1, 0]))
        output = model.ForwardOutput(logits, traces)
        config = model.ModelConfig(aspect_names=["a", "b"], l2_weight=0.0)
        inputs = [logits] + [w for t in traces for w in (t.self_weights, t.pos_weights)]
        f = lambda: model.combined_loss(output, record, None, config)[0]
    elif name == "product":
        a, b = mat(2, 3), mat(3, 2)
        inputs, f = [a, b], lambda: ad.reduce_sum(tanh(product(a, b)))
    elif name == "product-vector":
        a, v = mat(3, 4), vec(4)
        inputs, f = [a, v], lambda: ad.reduce_sum(tanh(product(a, v)))
    elif name == "product-batch":  # every row's matrix times one shared matrix
        a, b = ad.parameter(rng.normal(size=(2, 3, 4))), mat(4, 2)
        inputs, f = [a, b], lambda: ad.reduce_sum(tanh(product(a, b)))
    elif name == "product-vector-batch":  # each row's matrix times its own vector
        a, v = ad.parameter(rng.normal(size=(2, 3, 4))), mat(2, 4)
        inputs, f = [a, v], lambda: ad.reduce_sum(tanh(product(a, v, per_row=True)))
    elif name == "matmul-vector-left":  # weights over rows, as the position stage uses it
        v, a = vec(3), mat(3, 4)
        inputs, f = [v, a], lambda: ad.reduce_sum(tanh(ad.matmul(v, a)))
    elif name == "matmul-vector-left-batch":  # each row's weights over its own rows
        v, a = mat(2, 3), ad.parameter(rng.normal(size=(2, 3, 4)))
        inputs, f = [v, a], lambda: ad.reduce_sum(tanh(ad.matmul(v, a)))
    elif name == "reduce_sum":
        a = mat()
        inputs, f = [a], lambda: ad.reduce_sum(tanh(ad.reduce_sum(a, axis=1)))
    elif name == "concat":
        a, b = vec(3), vec(2)
        inputs, f = [a, b], lambda: ad.reduce_sum(tanh(concat([a, b])))
    elif name == "scale_rows":
        m, w = mat(), vec(3)
        inputs, f = [m, w], lambda: ad.reduce_sum(tanh(ad.scale_rows(m, w)))
    elif name == "scale_rows-batch":
        m, w = ad.parameter(rng.normal(size=(2, 3, 4))), mat(2, 3)
        inputs, f = [m, w], lambda: ad.reduce_sum(tanh(ad.scale_rows(m, w)))
    elif name.startswith("embed_sequence"):  # repeated ids add up in their row
        # ids from 1: the padding id's row takes no gradient
        tables = embeddings.EmbeddingTables(word=mat(5, 3), position=mat(4, 3))
        ids = [[1, 2, 2], [4, 3, 2]] if name.endswith("batch") else [3, 2, 2, 4]
        inputs = [tables.word, tables.position]
        f = lambda: ad.reduce_sum(tanh(embeddings.embed_sequence(ids, tables)))
    elif name.startswith("bilstm_forward"):  # padded: rows 3 and 4 are masked
        fwd, bwd = recurrent.init_lstm_params(3, 2, rng), recurrent.init_lstm_params(3, 2, rng)
        x = mat(5, 3)
        mask = np.arange(5) < (3 if name.endswith("padded") else 5)
        if name.endswith("batch"):  # full, padded, a hole, and a row of one step
            x = ad.parameter(rng.normal(size=(4, 5, 3)))
            mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 1, 0], [0, 0, 1, 0, 0]],
                            dtype=bool)
        readout = Tensor(rng.normal(size=(4, 3)))
        inputs = fwd.tensors() + bwd.tensors() + [x]
        f = lambda: ad.reduce_sum(
            tanh(product(recurrent.bilstm_forward(x, fwd, bwd, mask).values, readout))
        )
    elif name.split("-")[0] in ("self_attention", "position_aware_attention"):
        # 5 positions, a hole in the one sequence; the batch's rows: full, a
        # masked tail, and one position, whose weight is 1 at any input
        lead, mask = (), np.array([1, 1, 0, 1, 1], dtype=bool)
        if name.endswith("batch"):
            lead = (3,)
            mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [0, 0, 1, 0, 0]], dtype=bool)
        params = AspectAttentionParams(mat(3, 3), ad.parameter(0.4), mat(4, 3), ad.parameter(-0.3))
        hidden = ad.parameter(rng.normal(size=lead + (5, 3)))
        ebar = ad.parameter(rng.normal(size=lead + (4,)))
        readout = Tensor(rng.normal(size=lead + (5,)))
        if name.startswith("self"):
            inputs = [hidden, params.self_attn_w, params.self_attn_b]
            weights = lambda: self_attention(hidden, params, mask).weights
        else:
            inputs = [hidden, ebar, params.pos_attn_w, params.pos_attn_b]
            weights = lambda: position_aware_attention(hidden, hidden, ebar, params, mask).weights
        f = lambda: ad.reduce_sum(mul(weights(), readout))
    assert grad_check(f, inputs) < 1e-7


def test_forward_replay_is_deterministic():
    rng = np.random.default_rng(7)
    a_vals = rng.normal(size=(3, 3))
    v_vals = rng.normal(size=3)

    def run():
        a, v = Tensor(a_vals), Tensor(v_vals)
        return ad.reduce_sum(tanh(product(a, v))).item()

    assert run() == run()


def test_accumulate_rows_sparse_gradient():
    t = ad.parameter(np.ones((4, 2)))
    t.accumulate_rows(np.array([1, 1]), np.ones((2, 2)))
    np.testing.assert_array_equal(ad.dense_grad(t), [[0, 0], [2, 2], [0, 0], [0, 0]])

    # repeated indices, each row weighted differently, onto the gradient there
    t.accumulate_rows(np.array([3, 0, 3]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_array_equal(ad.dense_grad(t), [[3, 4], [2, 2], [0, 0], [6, 8]])
    # kept as the touched rows alone
    np.testing.assert_array_equal(t.grad.rows, [0, 1, 3])


def test_embedding_scatter_adds_to_a_gradient_written_first():
    # the tape replays in reverse, so the later-recorded square reaches the
    # table first; the embedding's rows add onto it, and an earlier pass's
    # gradient stays under both
    tables = embeddings.EmbeddingTables(
        word=ad.parameter(np.ones((4, 2))), position=ad.parameter(np.zeros((3, 2)))
    )
    word = tables.word
    with Tape():
        backward(ad.reduce_sum(embeddings.embed_sequence([3], tables)))
    with Tape():
        rows = embeddings.embed_sequence([[2, 2], [1, 2]], tables)
        backward(ad.add(ad.reduce_sum(rows), ad.reduce_sum(mul(word, word))))
    np.testing.assert_array_equal(ad.dense_grad(word), [[2, 2], [3, 3], [5, 5], [3, 3]])
    np.testing.assert_array_equal(ad.dense_grad(tables.position), [[3, 3], [2, 2], [0, 0]])


def test_backward_frees_each_operations_gradients_before_the_next():
    """A gradient that one op's backward returns is gone once it has been
    added into its input, before an earlier op's backward runs."""
    x = ad.parameter([1.0, -2.0])
    seen = {}

    def first_grad(g):
        seen["alive"] = seen["returned"]() is not None
        return (g,)

    def second_grad(g):
        returned = 3.0 * g
        seen["returned"] = weakref.ref(returned)
        return (returned,)

    with Tape():
        hidden = ad.record((x,), 2.0 * x.values, first_grad)
        backward(ad.reduce_sum(ad.record((hidden,), 3.0 * hidden.values, second_grad)))
    assert seen["alive"] is False
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def oracle_sum_of_squares(tensors):
    """The L2 term as a tape op, as the objective once recorded it:
    ``np.sum(x * x)`` per tensor, and each input's gradient ``x * 2g``
    handed back to the engine to add."""
    total = None
    for t in tensors:
        term = np.sum(t.values * t.values)
        total = term if total is None else total + term

    def grad_fn(g):
        return tuple(t.values * (2.0 * g) for t in tensors)

    return ad.record(tuple(tensors), np.asarray(total), grad_fn)


def test_operations_outside_tape_do_not_record():
    out = ad.add(Tensor(1.0), Tensor(2.0))
    assert out.tape is None
    with Tape() as tape:
        ad.add(Tensor(1.0), Tensor(2.0))
    assert len(tape) == 1
