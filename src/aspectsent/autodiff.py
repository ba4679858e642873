"""Reverse-mode automatic differentiation over dense float64 tensors.

Values live in numpy arrays; the differentiation graph is a flat tape of
recorded operations replayed in reverse. A tape is activated as a context
manager; outside any tape, operations run forward-only, which is what
evaluation code uses.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class DomainError(ValueError):
    """Input value lies outside an operation's numeric domain."""


class EmptyAttentionError(ValueError):
    """A softmax mask excludes every position."""


class GraphError(RuntimeError):
    """Backward was requested from an invalid root."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class Tensor:
    """Dense float64 array plus an optional same-shape gradient buffer.

    Gradients accumulate across backward passes until explicitly cleared,
    so multi-term objectives can sum contributions without extra plumbing.
    A float64 array passed in is wrapped without a copy.
    """

    __slots__ = ("values", "grad", "name", "tape")

    def __init__(self, values, name: Optional[str] = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self.tape: Optional["Tape"] = None

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.values.shape})"


def parameter(values, name: Optional[str] = None) -> Tensor:
    """Create a named leaf tensor for a trainable parameter."""
    return Tensor(values, name=name)


class _TapeOp:
    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs, output, grad_fn):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations; creation order is topological order."""

    def __init__(self):
        self.ops: list[_TapeOp] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        if popped is not self:
            raise GraphError("tape context exited out of order")
        return False

    def __len__(self) -> int:
        return len(self.ops)


def _record(inputs: tuple, out_values: np.ndarray, grad_fn: Callable) -> Tensor:
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None:
        out.tape = tape
        tape.ops.append(_TapeOp(inputs, out, grad_fn))
    return out


def backward(root: Tensor) -> None:
    """Propagate gradients from a scalar root back through its tape.

    Every tensor reachable from the root gets its grad buffer populated
    (accumulating onto whatever was already there); the root's own grad is
    set to ones. Tape entries that do not feed the root are skipped.
    """
    if root.tape is None:
        raise GraphError("backward root was not produced on an active tape")
    if root.values.shape != ():
        raise GraphError(
            f"backward root must be a scalar, got shape {root.values.shape}"
        )
    root.grad = np.ones_like(root.values)
    for op in reversed(root.tape.ops):
        out_grad = op.output.grad
        if out_grad is None:
            continue
        for tensor, g in zip(op.inputs, op.grad_fn(out_grad)):
            if g is not None:
                tensor.accumulate_grad(g)


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise operations


def _check_binary(a: Tensor, b: Tensor, op_name: str) -> None:
    # equal shapes, or either side a scalar (0-d) broadcast
    if a.values.shape == b.values.shape:
        return
    if a.values.shape == () or b.values.shape == ():
        return
    raise ShapeError(
        f"{op_name}: shapes {a.values.shape} and {b.values.shape} "
        "are neither equal nor scalar-broadcastable"
    )


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if shape == () and np.shape(g) != ():
        return np.asarray(np.sum(g))
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")
    out = a.values + b.values

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _record((a, b), out, grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")
    out = a.values - b.values

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return _record((a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    out = a.values * b.values
    av, bv = a.values, b.values

    def grad_fn(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _record((a, b), out, grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "div")
    out = a.values / b.values
    av, bv = a.values, b.values

    def grad_fn(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return _record((a, b), out, grad_fn)


def neg(a: Tensor) -> Tensor:
    def grad_fn(g):
        return (-g,)

    return _record((a,), -a.values, grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _record((a,), a.values * c, grad_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return _record((a,), y, grad_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    # piecewise form avoids overflow in exp for large |x|
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def grad_fn(g):
        return (g * y * (1.0 - y),)

    return _record((a,), y, grad_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise DomainError("log: input has non-positive entries")
    x = a.values

    def grad_fn(g):
        return (g / x,)

    return _record((a,), np.log(x), grad_fn)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root.

    The derivative at exactly zero is taken to be zero (subgradient
    convention), so norm-style penalties sitting at their minimum do not
    emit non-finite gradients.
    """
    if np.any(a.values < 0):
        raise DomainError("sqrt: input has negative entries")
    y = np.sqrt(a.values)

    def grad_fn(g):
        return (np.where(a.values > 0, g * 0.5 / np.where(y == 0, 1.0, y), 0.0),)

    return _record((a,), y, grad_fn)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes through inside the range."""
    x = a.values
    inside = (x >= lo) & (x <= hi)

    def grad_fn(g):
        return (g * inside,)

    return _record((a,), np.clip(x, lo, hi), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}"
        )
    av, bv = a.values, b.values

    def grad_fn(g):
        return g @ bv.T, av.T @ g

    return _record((a, b), av @ bv, grad_fn)


def matvec(a: Tensor, v: Tensor) -> Tensor:
    if a.values.ndim != 2 or v.values.ndim != 1 or a.values.shape[1] != v.values.shape[0]:
        raise ShapeError(
            f"matvec: incompatible shapes {a.values.shape} and {v.values.shape}"
        )
    av, vv = a.values, v.values

    def grad_fn(g):
        return np.outer(g, vv), av.T @ g

    return _record((a, v), av @ vv, grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.values.shape}")

    def grad_fn(g):
        return (g.T,)

    return _record((a,), a.values.T.copy(), grad_fn)


# ---------------------------------------------------------------------------
# reductions, reshaping, indexing


def reduce_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    rank = a.values.ndim
    if axis is not None and not -rank <= axis < rank:
        raise ShapeError(f"reduce_sum: axis {axis} out of range for shape {a.values.shape}")
    shape = a.values.shape

    def grad_fn(g):
        if axis is None:
            return (np.full(shape, g, dtype=np.float64),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _record((a,), np.sum(a.values, axis=axis), grad_fn)


def reduce_mean(a: Tensor, axis: Optional[int] = None) -> Tensor:
    rank = a.values.ndim
    if axis is not None and not -rank <= axis < rank:
        raise ShapeError(f"reduce_mean: axis {axis} out of range for shape {a.values.shape}")
    shape = a.values.shape
    n = a.values.size if axis is None else shape[axis]

    def grad_fn(g):
        if axis is None:
            return (np.full(shape, g / n, dtype=np.float64),)
        return (np.broadcast_to(np.expand_dims(g / n, axis), shape).copy(),)

    return _record((a,), np.mean(a.values, axis=axis), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty part list")
    rank = parts[0].values.ndim
    for p in parts[1:]:
        if p.values.ndim != rank:
            raise ShapeError("concat: mixed ranks")
        for d in range(rank):
            if d != axis % rank and p.values.shape[d] != parts[0].values.shape[d]:
                raise ShapeError(
                    f"concat: side dimensions differ, {p.values.shape} vs "
                    f"{parts[0].values.shape} along axis {d}"
                )
    sizes = [p.values.shape[axis % rank] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return _record(tuple(parts), np.concatenate([p.values for p in parts], axis=axis), grad_fn)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row."""
    if not parts:
        raise ShapeError("stack_rows: empty part list")
    n = parts[0].values.shape
    for p in parts:
        if p.values.ndim != 1 or p.values.shape != n:
            raise ShapeError(
                f"stack_rows: expected equal-length vectors, got {p.values.shape} vs {n}"
            )

    def grad_fn(g):
        return tuple(g[i].copy() for i in range(len(parts)))

    return _record(tuple(parts), np.stack([p.values for p in parts]), grad_fn)


def scale_rows(m: Tensor, w: Tensor) -> Tensor:
    """Scale each row of a matrix by the matching entry of a vector."""
    if m.values.ndim != 2 or w.values.ndim != 1 or m.values.shape[0] != w.values.shape[0]:
        raise ShapeError(
            f"scale_rows: incompatible shapes {m.values.shape} and {w.values.shape}"
        )
    mv, wv = m.values, w.values

    def grad_fn(g):
        return g * wv[:, None], np.sum(g * mv, axis=1)

    return _record((m, w), mv * wv[:, None], grad_fn)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; the backward pass scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.values.ndim != 2 or idx.ndim != 1:
        raise ShapeError(
            f"gather_rows: expected matrix and index vector, got {table.values.shape}"
        )
    shape = table.values.shape

    def grad_fn(g):
        out = np.zeros(shape, dtype=np.float64)
        np.add.at(out, idx, g)
        return (out,)

    return _record((table,), table.values[idx].copy(), grad_fn)


def take_row(m: Tensor, index: int) -> Tensor:
    if m.values.ndim != 2:
        raise ShapeError(f"take_row: expected a matrix, got shape {m.values.shape}")
    shape = m.values.shape

    def grad_fn(g):
        out = np.zeros(shape, dtype=np.float64)
        out[index] = g
        return (out,)

    return _record((m,), m.values[index].copy(), grad_fn)


def pick(v: Tensor, index: int) -> Tensor:
    """Select one element of a vector as a scalar."""
    if v.values.ndim != 1:
        raise ShapeError(f"pick: expected a vector, got shape {v.values.shape}")
    n = v.values.shape

    def grad_fn(g):
        out = np.zeros(n, dtype=np.float64)
        out[index] = g
        return (out,)

    return _record((v,), np.asarray(v.values[index]), grad_fn)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of a vector.

    Masked positions get exactly zero; the unmasked outputs are positive and
    sum to one. Logits are shifted by their unmasked maximum before
    exponentiation, which leaves the result unchanged but keeps exp finite.
    """
    m = np.asarray(mask, dtype=bool)
    if logits.values.ndim != 1 or m.shape != logits.values.shape:
        raise ShapeError(
            f"masked_softmax: logits {logits.values.shape} vs mask {m.shape}"
        )
    if not m.any():
        raise EmptyAttentionError("masked_softmax: mask excludes every position")
    x = logits.values
    shifted = x[m] - np.max(x[m])
    e = np.zeros_like(x)
    e[m] = np.exp(shifted)
    out = e / np.sum(e)

    def grad_fn(g):
        return (out * (g - np.dot(g, out)),)

    return _record((logits,), out, grad_fn)


# ---------------------------------------------------------------------------
# gradient checking


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
    analytic = [
        np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in inputs
    ]

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
