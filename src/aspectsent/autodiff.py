"""Reverse-mode automatic differentiation over dense float64 tensors.

Values live in numpy arrays; the differentiation graph is a flat tape of
recorded operations replayed in reverse. A tape is activated as a context
manager; outside any tape, operations run forward-only, which is what
evaluation code uses.

Each of the 17 operations is one numpy primitive: elementwise ``add`` (+),
``sub``, ``mul``, ``div``, ``tanh``, ``log``, ``sqrt`` and ``clamp``
(``np.clip``), where a constant enters as a 0-d ``Tensor``; ``matmul``
(@: matrix @ matrix, matrix @ vector or vector @ matrix) and
``transpose``; ``reduce_sum`` and ``sum_of_squares`` (``np.sum(x * x)``
over many tensors); ``concat``, ``stack_rows``, ``scale_rows``
(``m * w[:, None]``) and ``gather_rows`` (``x[idx]``); ``masked_softmax``.
Composites are built from these: a weighted sum of rows is
``matmul(w, rows)``, and a negation is ``sub(0, x)``, which differs from
``-x`` only in the sign of a zero.

An operation made of many numpy steps, with a backward pass written by
hand, is defined where it is used and recorded through the public
``record``: ``recurrent.bilstm_forward`` runs both LSTM directions over a
whole sequence as one operation.

Gradients are dense buffers of the tensor's shape, allocated on first
use. ``backward`` leaves them on the leaves alone: an operation's output
drops its gradient once that gradient has been passed on to the inputs, so
the buffers of intermediate values live only while the pass needs them.
``gather_rows`` scatter-adds into its table's buffer directly, row by
gathered row, so a lookup into a large table never builds a table-sized
array of its own; ``sum_of_squares`` records a penalty over many tensors
as one operation.
"""

from __future__ import annotations

import threading
import weakref
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

    A leaf's gradient accumulates across backward passes until explicitly
    cleared, so backward from each term of an objective sums their
    gradients; the output of a recorded operation holds a gradient only
    during the backward pass that reaches it.
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
            self.grad = np.zeros(self.values.shape)
        self.grad += g

    def accumulate_rows(self, idx: np.ndarray, rows: np.ndarray) -> None:
        """Add ``rows[i]`` to gradient row ``idx[i]``; repeated indices add up."""
        if self.grad is None:
            self.grad = np.zeros(self.values.shape)
        if idx.ndim == 0:  # one row: a plain += gives the same bits as np.add.at, faster
            self.grad[int(idx)] += rows
        else:
            np.add.at(self.grad, idx, rows)

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
        self.proxy = weakref.proxy(self)  # what outputs hold: tape and outputs form no cycle

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


def record(inputs: tuple, out_values: np.ndarray, grad_fn: Callable) -> Tensor:
    """Wrap ``out_values`` as the output of an operation on ``inputs``.

    On an active tape the operation is recorded: in ``backward``,
    ``grad_fn(output_grad)`` returns one gradient per input, or None for an
    input it has already updated itself, and each is added to that input's
    buffer. Outside any tape only the output is made. Every operation,
    here and in other modules, records through this function.
    """
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None:
        out.tape = tape.proxy
        tape.ops.append(_TapeOp(inputs, out, grad_fn))
    return out


def backward(root: Tensor) -> None:
    """Propagate gradients from a scalar root back through its tape.

    Every leaf reachable from the root gets its grad buffer populated
    (accumulating onto whatever was already there); the root's own grad is
    set to ones. An operation's output hands its gradient to the
    operation's inputs and then drops it, so a second pass over the same
    tape, from another root, adds only that root's gradient. Tape entries
    that do not feed the root are skipped.
    """
    try:
        ops = root.tape.ops
    except (AttributeError, ReferenceError):
        raise GraphError("backward root was not produced on a live tape") from None
    if root.values.shape != ():
        raise GraphError(
            f"backward root must be a scalar, got shape {root.values.shape}"
        )
    root.grad = np.ones_like(root.values)
    for op in reversed(ops):
        out_grad = op.output.grad
        if out_grad is None:
            continue
        for tensor, g in zip(op.inputs, op.grad_fn(out_grad)):
            if g is not None:
                tensor.accumulate_grad(g)
        op.output.grad = None


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

    return record((a, b), out, grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")
    out = a.values - b.values

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return record((a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    out = a.values * b.values
    av, bv = a.values, b.values

    def grad_fn(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return record((a, b), out, grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "div")
    out = a.values / b.values
    av, bv = a.values, b.values

    def grad_fn(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return record((a, b), out, grad_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return record((a,), y, grad_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise DomainError("log: input has non-positive entries")
    x = a.values

    def grad_fn(g):
        return (g / x,)

    return record((a,), np.log(x), grad_fn)


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

    return record((a,), y, grad_fn)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes through inside the range."""
    x = a.values
    inside = (x >= lo) & (x <= hi)

    def grad_fn(g):
        return (g * inside,)

    return record((a,), np.clip(x, lo, hi), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product ``a @ b`` of two matrices, a matrix and a vector, or a vector
    and a matrix: a vector on the left is a row of weights over ``b``'s rows."""
    av, bv = a.values, b.values
    if sorted((av.ndim, bv.ndim)) not in ([1, 2], [2, 2]) or av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")

    def grad_fn(g):
        ga = np.outer(g, bv) if bv.ndim == 1 else g @ bv.T
        return ga, (np.outer(av, g) if av.ndim == 1 else av.T @ g)

    return record((a, b), av @ bv, grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.values.shape}")

    def grad_fn(g):
        return (g.T,)

    return record((a,), a.values.T.copy(), grad_fn)


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

    return record((a,), np.sum(a.values, axis=axis), grad_fn)


def sum_of_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Scalar sum of the squares of every entry of every tensor.

    Tensor by tensor, in the given order, it adds ``np.sum(x * x)`` to a
    running total: the same value, to the bit, as the chain of
    ``reduce_sum(mul(x, x))`` terms joined by ``add``, in one tape op.
    """
    if not tensors:
        raise ShapeError("sum_of_squares: empty tensor list")
    total = None
    for t in tensors:
        term = np.sum(t.values * t.values)
        total = term if total is None else total + term

    def grad_fn(g):
        return tuple(t.values * (2.0 * g) for t in tensors)

    return record(tuple(tensors), np.asarray(total), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an axis; numpy checks ranks and side dimensions."""
    try:
        out = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    bounds = np.cumsum([p.values.shape[axis] for p in parts])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return record(tuple(parts), out, grad_fn)


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

    return record(tuple(parts), np.stack([p.values for p in parts]), grad_fn)


def scale_rows(m: Tensor, w: Tensor) -> Tensor:
    """Scale each row of a matrix by the matching entry of a vector."""
    if m.values.ndim != 2 or w.values.ndim != 1 or m.values.shape[0] != w.values.shape[0]:
        raise ShapeError(
            f"scale_rows: incompatible shapes {m.values.shape} and {w.values.shape}"
        )
    mv, wv = m.values, w.values

    def grad_fn(g):
        return g * wv[:, None], np.sum(g * mv, axis=1)

    return record((m, w), mv * wv[:, None], grad_fn)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Index the first axis by an int or an int vector, as ``table[indices]``.

    An int reads one row of a matrix, or one entry of a vector as a 0-d
    tensor; an int vector reads one row per index. The backward pass
    scatter-adds the output gradient into the table's own gradient buffer,
    in place and row-sparse: only the rows read are touched, so its cost
    follows the number of indices, not the size of the table.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if table.values.ndim < 1 or idx.ndim > 1:
        raise ShapeError(
            f"gather_rows: cannot index shape {table.values.shape} by shape {idx.shape}"
        )

    def grad_fn(g):
        table.accumulate_rows(idx, g)
        return (None,)

    return record((table,), table.values[idx], grad_fn)


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

    return record((logits,), out, grad_fn)


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
