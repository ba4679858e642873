import gc
import importlib
import inspect
import pkgutil
import re
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectsent
from aspectsent import autodiff as ad
from aspectsent import model, recurrent
from aspectsent.autodiff import (
    EmptyAttentionError,
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    grad_check,
)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_computed():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)
    for a, b in ((np.zeros(2), np.zeros((3, 2))), (np.zeros(3), np.zeros(3))):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(a), Tensor(b))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=(2, 3)))
    b = ad.parameter(rng.normal(size=(3, 4)))
    err = grad_check(lambda: ad.reduce_sum(ad.matmul(a, b)), [a, b])
    assert err < 1e-9
    # gradient of sum(A @ B) w.r.t. A is the row sums of B broadcast along rows
    ad.zero_grads([a, b])
    with Tape():
        backward(ad.reduce_sum(ad.matmul(a, b)))
    expected = np.tile(b.values.sum(axis=1), (2, 1))
    np.testing.assert_allclose(a.grad, expected, atol=1e-12)


def test_tanh_at_zero():
    assert ad.tanh(Tensor(0.0)).item() == 0.0


def test_tanh_derivative_matches_central_difference():
    x = ad.parameter(1.0)
    h = 1e-6
    with Tape():
        backward(ad.tanh(x))
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


def test_masked_softmax_uniform_and_single():
    out = ad.masked_softmax(Tensor([0.0, 0.0]), [True, True])
    np.testing.assert_allclose(out.values, [0.5, 0.5])
    for x in (-50.0, 0.0, 123.0):
        assert ad.masked_softmax(Tensor([x]), [True]).values[0] == 1.0


def test_masked_softmax_matches_direct_renormalization():
    out = ad.masked_softmax(Tensor([1.0, 2.0, 3.0]), [True, True, False])
    direct = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
    np.testing.assert_allclose(out.values[:2], direct, atol=1e-15)
    assert out.values[2] == 0.0


def test_masked_softmax_empty_mask():
    with pytest.raises(EmptyAttentionError):
        ad.masked_softmax(Tensor([1.0, 2.0]), [False, False])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.data(),
)
def test_masked_softmax_properties(logits, data):
    mask = data.draw(
        st.lists(st.booleans(), min_size=len(logits), max_size=len(logits)).filter(any)
    )
    out = ad.masked_softmax(Tensor(logits), mask).values
    assert np.all(out >= 0)
    assert np.all(out[~np.asarray(mask)] == 0.0)
    assert abs(out[np.asarray(mask)].sum() - 1.0) <= 1e-9
    shift = data.draw(st.floats(min_value=-30, max_value=30))
    shifted = ad.masked_softmax(Tensor(np.asarray(logits) + shift), mask).values
    np.testing.assert_allclose(shifted, out, atol=1e-12)


def test_sum_of_softmax_is_one():
    out = ad.reduce_sum(ad.masked_softmax(Tensor([0.3, -1.2, 2.0]), [1, 1, 1]))
    assert abs(out.item() - 1.0) < 1e-12


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        ad.reduce_sum(Tensor([[1.0]]), axis=2)


def test_concat_values_and_backward():
    a = ad.parameter([1.0, 2.0])
    b = ad.parameter([3.0])
    with Tape():
        out = ad.concat([a, b])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])
        backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])


def test_concat_shape_law():
    parts = [Tensor(np.zeros(4)) for _ in range(3)]
    assert ad.concat(parts).values.shape == (12,)


def test_concat_side_dimension_mismatch():
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)
    for parts in ([], [Tensor(1.0), Tensor(2.0)], [Tensor(np.zeros(2)), Tensor(np.zeros((1, 2)))]):
        with pytest.raises(ShapeError):
            ad.concat(parts)


def test_backward_square():
    x = ad.parameter(3.0)
    with Tape():
        backward(ad.mul(x, x))
    assert float(x.grad) == 6.0


def test_backward_accumulates_without_zeroing():
    x = ad.parameter(3.0)
    with Tape():
        backward(ad.mul(x, x))
    with Tape():
        backward(ad.mul(x, x))
    assert float(x.grad) == 12.0


def test_two_roots_on_one_tape_sum_their_gradients():
    x = ad.parameter([0.3, -0.7])
    with Tape():
        y = ad.tanh(x)
        backward(ad.reduce_sum(y))
        backward(ad.reduce_sum(ad.mul(y, y)))
    t = np.tanh(x.values)
    np.testing.assert_allclose(x.grad, (1 - t * t) * (1 + 2 * t), rtol=1e-14)


def test_backward_leaves_gradients_on_leaves_only():
    a, b = ad.parameter([[1.0, 2.0], [3.0, 4.0]]), ad.parameter([0.5, -1.0])
    with Tape() as tape:
        backward(ad.reduce_sum(ad.tanh(ad.matmul(a, b))))
    assert a.grad is not None and b.grad is not None
    assert all(op.output.grad is None for op in tape.ops)


def test_backward_matvec_outer_structure():
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(3, 2)))
    v = ad.parameter(rng.normal(size=2))
    err = grad_check(lambda: ad.reduce_sum(ad.matmul(w, v)), [w, v])
    assert err < 1e-9


def test_backward_requires_scalar_root():
    with Tape():
        out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(GraphError):
            backward(out)


def test_backward_requires_tape():
    out = ad.mul(Tensor(2.0), Tensor(3.0))
    with pytest.raises(GraphError):
        backward(out)


def test_finished_tape_is_freed_without_the_cycle_collector():
    x = ad.parameter(3.0)
    gc.disable()
    try:
        with Tape() as tape:
            root = ad.mul(ad.tanh(x), x)
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
    assert grad_check(lambda: ad.reduce_sum(ad.mul(v, Tensor(3.0))), [v]) < 1e-9


def test_grad_check_tanh_matmul_composition():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.normal(size=(3, 3)))
    b = ad.parameter(rng.normal(size=(3, 2)))
    err = grad_check(lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, b))), [a, b])
    assert err < 1e-6


# One case per operation, plus "op-variant" cases for other operand forms.
GRAD_CHECK_CASES = [
    "add", "mul", "mul-constant", "tanh", "matmul", "matmul-vector", "matmul-vector-left",
    "reduce_sum", "concat", "stack_rows", "scale_rows",
    "gather_rows", "gather_rows-int-matrix", "gather_rows-int-vector",
    "masked_softmax", "sum_of_squares", "bilstm_forward", "bilstm_forward-padded",
    "cross_entropy-target-0", "cross_entropy-target-1", "orthogonal_penalty",
]


def test_every_tape_op_has_a_grad_check_case():
    # every function, in any module of the package, that calls record or ad.record
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(aspectsent.__path__, "aspectsent.")
    ]
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
        fn = getattr(ad, name)
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(fn(a, b)))
    elif name == "tanh":
        a = vec()
        inputs, f = [a], lambda: ad.reduce_sum(ad.tanh(a))
    elif name == "mul-constant":
        a = vec()
        inputs, f = [a], lambda: ad.reduce_sum(ad.tanh(ad.mul(a, Tensor(-1.7))))
    elif name.startswith("cross_entropy"):  # a probability pair, inside the clip range
        probs, target = ad.parameter(rng.uniform(0.2, 0.8, size=2)), int(name[-1])
        inputs, f = [probs], lambda: model.cross_entropy(probs, target)
    elif name == "orthogonal_penalty":
        m = mat(3, 5)
        inputs, f = [m], lambda: model.orthogonal_penalty(m)
    elif name == "matmul":
        a, b = mat(2, 3), mat(3, 2)
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, b)))
    elif name == "matmul-vector":
        a, v = mat(3, 4), vec(4)
        inputs, f = [a, v], lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, v)))
    elif name == "matmul-vector-left":  # weights over rows, as the heads and attention use it
        v, a = vec(3), mat(3, 4)
        inputs, f = [v, a], lambda: ad.reduce_sum(ad.tanh(ad.matmul(v, a)))
    elif name == "reduce_sum":
        a = mat()
        inputs, f = [a], lambda: ad.reduce_sum(ad.tanh(ad.reduce_sum(a, axis=1)))
    elif name == "concat":
        a, b = vec(3), vec(2)
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(ad.concat([a, b])))
    elif name == "stack_rows":
        a, b = vec(), vec()
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(ad.stack_rows([a, b])))
    elif name == "scale_rows":
        m, w = mat(), vec(3)
        inputs, f = [m, w], lambda: ad.reduce_sum(ad.tanh(ad.scale_rows(m, w)))
    elif name == "gather_rows":
        t = mat(5, 3)
        inputs, f = [t], lambda: ad.reduce_sum(ad.tanh(ad.gather_rows(t, [0, 2, 2, 4])))
    elif name == "gather_rows-int-matrix":
        m = mat()
        inputs, f = [m], lambda: ad.reduce_sum(ad.tanh(ad.gather_rows(m, 1)))
    elif name == "gather_rows-int-vector":
        v = vec()
        inputs, f = [v], lambda: ad.tanh(ad.gather_rows(v, 2))
    elif name == "sum_of_squares":
        a, b, c = mat(), vec(), ad.parameter(rng.normal())
        inputs, f = [a, b, c], lambda: ad.tanh(ad.mul(ad.sum_of_squares([a, b, c]), Tensor(0.1)))
    elif name.startswith("bilstm_forward"):  # padded: rows 3 and 4 are masked
        fwd, bwd = recurrent.init_lstm_params(3, 2, rng), recurrent.init_lstm_params(3, 2, rng)
        x = mat(5, 3)
        mask = np.arange(5) < (3 if name.endswith("padded") else 5)
        readout = Tensor(rng.normal(size=(4, 3)))
        inputs = fwd.tensors() + bwd.tensors() + [x]
        f = lambda: ad.reduce_sum(
            ad.tanh(ad.matmul(recurrent.bilstm_forward(x, fwd, bwd, mask).values, readout))
        )
    elif name == "masked_softmax":
        v = vec(5)
        mask = [True, True, False, True, True]
        inputs, f = [v], lambda: ad.reduce_sum(
            ad.mul(ad.masked_softmax(v, mask), Tensor([0.3, -1.0, 0.0, 2.0, 0.7]))
        )
    assert grad_check(f, inputs) < 1e-4


def test_forward_replay_is_deterministic():
    rng = np.random.default_rng(7)
    a_vals = rng.normal(size=(3, 3))
    v_vals = rng.normal(size=3)

    def run():
        a, v = Tensor(a_vals), Tensor(v_vals)
        return ad.reduce_sum(ad.tanh(ad.matmul(a, v))).item()

    assert run() == run()


def test_gather_rows_sparse_gradient():
    t = ad.parameter(np.ones((4, 2)))
    with Tape():
        backward(ad.reduce_sum(ad.gather_rows(t, [1, 1])))
    np.testing.assert_array_equal(t.grad, [[0, 0], [2, 2], [0, 0], [0, 0]])

    # repeated indices, each row weighted differently
    weights = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    t.grad = None
    with Tape():
        backward(ad.reduce_sum(ad.mul(ad.gather_rows(t, [3, 0, 3]), weights)))
    np.testing.assert_array_equal(t.grad, [[3, 4], [0, 0], [0, 0], [6, 8]])

    # onto a gradient another op of the same pass wrote first (the tape
    # replays in reverse, so the later-recorded square reaches t first)
    t.grad = None
    with Tape():
        backward(ad.add(ad.reduce_sum(ad.gather_rows(t, [2, 2])), ad.reduce_sum(ad.mul(t, t))))
    np.testing.assert_array_equal(t.grad, [[2, 2], [2, 2], [4, 4], [2, 2]])

    # onto a gradient left by an earlier backward pass
    with Tape():
        backward(ad.reduce_sum(ad.gather_rows(t, [0])))
    np.testing.assert_array_equal(t.grad, [[3, 3], [2, 2], [4, 4], [2, 2]])

    # from a non-leaf table
    t.grad = None
    with Tape():
        doubled = ad.concat([ad.mul(t, Tensor(2.0)), t], axis=1)
        backward(ad.reduce_sum(ad.gather_rows(doubled, [1, 3, 1])))
    np.testing.assert_array_equal(t.grad, [[0, 0], [6, 6], [0, 0], [3, 3]])

    # an int index reads one row of a matrix, or one entry of a vector as a
    # 0-d tensor, and its backward writes only that row: a dense write would
    # add +0.0 to the other rows and turn their -0.0 into 0.0
    for table in (t, ad.parameter([1.0, 2.0, 3.0, 4.0])):
        table.grad = np.full(table.values.shape, -0.0)
        with Tape():
            backward(ad.reduce_sum(ad.gather_rows(table, 2)))
        expected = np.zeros(table.values.shape)
        expected[2] = 1.0
        np.testing.assert_array_equal(table.grad, expected)
        assert np.all(np.signbit(np.delete(table.grad, 2, axis=0)))

    # two reads of one int index add up in that row
    for table in (t, ad.parameter([1.0, 2.0, 3.0, 4.0])):
        table.grad = None
        with Tape():
            backward(ad.reduce_sum(ad.add(ad.gather_rows(table, 1), ad.gather_rows(table, 1))))
        expected = np.zeros(table.values.shape)
        expected[1] = 2.0
        np.testing.assert_array_equal(table.grad, expected)


def test_sum_of_squares_matches_composed_chain():
    rng = np.random.default_rng(3)
    tensors = [
        ad.parameter(rng.normal(size=(50, 7))),
        ad.parameter(rng.normal(size=5)),
        ad.parameter(rng.normal()),
    ]
    chain = None
    for t in tensors:
        term = ad.reduce_sum(ad.mul(t, t))
        chain = term if chain is None else ad.add(chain, term)
    fused = ad.sum_of_squares(tensors)
    assert fused.values.shape == ()
    assert fused.item() == chain.item()
    with Tape():
        backward(ad.mul(ad.sum_of_squares(tensors), Tensor(0.5)))
    for t in tensors:
        np.testing.assert_array_equal(t.grad, t.values)


def test_operations_outside_tape_do_not_record():
    out = ad.add(Tensor(1.0), Tensor(2.0))
    assert out.tape is None
    with Tape() as tape:
        ad.add(Tensor(1.0), Tensor(2.0))
    assert len(tape) == 1
