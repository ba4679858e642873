"""Central-difference gradient checking, the oracle for every op's backward;
the tanh op that the checks put over an op's output as a non-linear root;
and the ops that only the composed reference models use: ``concat`` to join
their parts, the elementwise ``mul``, and ``product``, a general matrix
product beside the engine's weights-over-rows ``matmul``."""

from typing import Callable, Sequence

import numpy as np

from aspectsent.autodiff import (
    GraphError,
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    _check_binary,
    _unbroadcast,
    backward,
    dense_grad,
    record,
)


def grad_check(f: Callable[[], Tensor], inputs: Sequence[Tensor], h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of a scalar function to central differences.

    Returns the maximum over all input components of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    The function is re-evaluated forward-only for every perturbed component,
    so it must be deterministic.
    """
    for t in inputs:
        t.grad = None
    with Tape():
        out = f()
        if out.values.shape != ():
            raise GraphError("grad_check: function must return a scalar")
        if not np.isfinite(out.values):
            raise NumericError("grad_check: non-finite function value")
        backward(out)
    analytic = [dense_grad(t) for t in inputs]

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().values)
            flat[i] = orig - h
            down = float(f().values)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("grad_check: non-finite value during perturbation")
            numeric = (up - down) / (2.0 * h)
            denom = max(1.0, abs(a_flat[i]), abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def tanh(a: Tensor) -> Tensor:
    """Elementwise tanh as a recorded op, with the backward ``g * (1 - y²)``."""
    y = np.tanh(a.values)
    return record((a,), y, lambda g: (g * (1.0 - y * y),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an axis as a recorded op; each part's gradient is a
    contiguous copy of its slice."""
    out = np.concatenate([p.values for p in parts], axis=axis)
    bounds = np.cumsum([p.values.shape[axis] for p in parts])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return record(tuple(parts), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, broadcast as the engine's ``add`` is: a constant
    enters as a 0-d ``Tensor``."""
    _check_binary(a, b, "mul")
    av, bv = a.values, b.values

    def grad_fn(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return record((a, b), av * bv, grad_fn)


def product(a: Tensor, b: Tensor, per_row: bool = False) -> Tensor:
    """Product ``a @ b`` of two matrices, a matrix and a vector, or a vector
    and a matrix.

    With a batch axis B on ``a``, one product per row: (B, m, n) @ (n, p)
    shares the matrix ``b``, and with ``per_row`` (B, m, n) @ (B, n) takes
    each row's own vector: a (B, n) ``b`` and an (n, n) one look alike when
    B = n.
    """
    av, bv = a.values, b.values
    if per_row:
        ok = av.ndim == 3 and bv.shape == (av.shape[0], av.shape[2])
    else:
        ok = (av.ndim, bv.ndim) in ((2, 2), (2, 1), (1, 2), (3, 2)) and av.shape[-1] == bv.shape[0]
    if not ok:
        raise ShapeError(f"product: incompatible shapes {av.shape} and {bv.shape}")
    if per_row:
        out = np.matmul(av, bv[..., None])[..., 0]

        def grad_fn(g):
            return g[..., None] * bv[:, None, :], np.matmul(g[:, None, :], av)[:, 0]
    elif av.ndim == 3:  # the shared matrix as one product over every row
        rows, p = av.reshape(-1, av.shape[-1]), bv.shape[1]
        out = (rows @ bv).reshape(av.shape[:2] + (p,))

        def grad_fn(g):
            return (g.reshape(-1, p) @ bv.T).reshape(av.shape), rows.T @ g.reshape(-1, p)
    else:
        out = av @ bv

        def grad_fn(g):
            ga = np.outer(g, bv) if bv.ndim == 1 else g @ bv.T
            return ga, (np.outer(av, g) if av.ndim == 1 else av.T @ g)

    return record((a, b), out, grad_fn)
