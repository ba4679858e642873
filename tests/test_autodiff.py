import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectsent import autodiff as ad
from aspectsent.autodiff import (
    DomainError,
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


def test_tanh_sigmoid_at_zero():
    assert ad.tanh(Tensor(0.0)).item() == 0.0
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_tanh_derivative_matches_central_difference():
    x = ad.parameter(1.0)
    h = 1e-6
    with Tape():
        backward(ad.tanh(x))
    numeric = (np.tanh(1 + h) - np.tanh(1 - h)) / (2 * h)
    assert abs(float(x.grad) - numeric) < 1e-6


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(Tensor([1.0, 0.0]))


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


def test_reduce_mean_value_and_grad():
    v = ad.parameter([2.0, 4.0, 6.0])
    out = ad.reduce_mean(v)
    assert out.item() == 4.0
    with Tape():
        backward(ad.reduce_mean(v))
    np.testing.assert_allclose(v.grad, np.full(3, 1 / 3))


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


def test_backward_matvec_outer_structure():
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(3, 2)))
    v = ad.parameter(rng.normal(size=2))
    err = grad_check(lambda: ad.reduce_sum(ad.matvec(w, v)), [w, v])
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


def test_grad_check_linear_is_near_exact():
    v = ad.parameter([1.0, -2.0, 0.5])
    assert grad_check(lambda: ad.reduce_sum(ad.scale(v, 3.0)), [v]) < 1e-9


def test_grad_check_tanh_matmul_composition():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.normal(size=(3, 3)))
    b = ad.parameter(rng.normal(size=(3, 2)))
    err = grad_check(lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, b))), [a, b])
    assert err < 1e-6


@pytest.mark.parametrize(
    "name",
    [
        "add", "sub", "mul", "div", "neg", "scale", "tanh", "sigmoid", "log",
        "sqrt", "clamp", "matmul", "matvec", "transpose", "reduce_sum",
        "reduce_mean", "concat", "stack_rows", "scale_rows", "gather_rows",
        "take_row", "pick", "masked_softmax",
    ],
)
def test_grad_check_every_operation(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    def vec(n=4):
        return ad.parameter(rng.normal(size=n))

    def mat(r=3, c=4):
        return ad.parameter(rng.normal(size=(r, c)))

    if name in ("add", "sub", "mul", "div"):
        a, b = vec(), ad.parameter(rng.uniform(1.0, 2.0, size=4))
        fn = getattr(ad, name)
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(fn(a, b)))
    elif name in ("neg", "tanh", "sigmoid"):
        a = vec()
        fn = getattr(ad, name)
        inputs, f = [a], lambda: ad.reduce_sum(fn(a))
    elif name == "scale":
        a = vec()
        inputs, f = [a], lambda: ad.reduce_sum(ad.scale(a, -1.7))
    elif name in ("log", "sqrt"):
        a = ad.parameter(rng.uniform(0.5, 2.0, size=5))
        fn = getattr(ad, name)
        inputs, f = [a], lambda: ad.reduce_sum(fn(a))
    elif name == "clamp":
        a = ad.parameter([-2.0, -0.4, 0.3, 1.8])
        inputs, f = [a], lambda: ad.reduce_sum(ad.mul(ad.clamp(a, -1.0, 1.0), a))
    elif name == "matmul":
        a, b = mat(2, 3), mat(3, 2)
        inputs, f = [a, b], lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, b)))
    elif name == "matvec":
        a, v = mat(3, 4), vec(4)
        inputs, f = [a, v], lambda: ad.reduce_sum(ad.tanh(ad.matvec(a, v)))
    elif name == "transpose":
        a = mat()
        inputs, f = [a], lambda: ad.reduce_sum(ad.tanh(ad.transpose(a)))
    elif name in ("reduce_sum", "reduce_mean"):
        a = mat()
        fn = getattr(ad, name)
        inputs, f = [a], lambda: ad.reduce_sum(ad.tanh(fn(a, axis=1)))
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
    elif name == "take_row":
        m = mat()
        inputs, f = [m], lambda: ad.reduce_sum(ad.tanh(ad.take_row(m, 1)))
    elif name == "pick":
        v = vec()
        inputs, f = [v], lambda: ad.tanh(ad.pick(v, 2))
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
        return ad.reduce_sum(ad.tanh(ad.matvec(a, v))).item()

    assert run() == run()


def test_gather_rows_sparse_gradient():
    t = ad.parameter(np.ones((4, 2)))
    with Tape():
        backward(ad.reduce_sum(ad.gather_rows(t, [1, 1])))
    np.testing.assert_array_equal(t.grad, [[0, 0], [2, 2], [0, 0], [0, 0]])


def test_operations_outside_tape_do_not_record():
    out = ad.add(Tensor(1.0), Tensor(2.0))
    assert out.tape is None
    with Tape() as tape:
        ad.add(Tensor(1.0), Tensor(2.0))
    assert len(tape) == 1
