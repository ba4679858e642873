"""Reverse-mode automatic differentiation over dense float64 tensors.

Values live in numpy arrays; the differentiation graph is a flat tape of
recorded operations replayed in reverse. A tape is activated as a context
manager; outside any tape, operations run forward-only, which is what
evaluation code uses.

Each of the 10 operations is one numpy primitive: elementwise ``add`` (+),
``mul`` and ``tanh``, where a constant enters as a 0-d ``Tensor``;
``matmul`` (@: matrix @ matrix, matrix @ vector or vector @ matrix);
``reduce_sum`` and ``sum_of_squares`` (``np.vdot(x, x)`` over many
tensors); ``concat``, ``stack_rows`` and ``scale_rows``
(``m * w[..., None]``); ``masked_softmax``. Composites are built from
these: a weighted sum of rows is ``matmul(w, rows)``, and so is a mean,
with weights ``1/n``.

A training batch runs each operation once over a leading batch axis B; a
single sequence is the same call without it. ``add`` and ``mul`` broadcast
an operand whose shape ends the other's, ``matmul`` lists its batch forms,
and the other operations work on the last axes.

An operation made of many numpy steps, with a backward pass written by
hand, is defined where it is used and recorded through the public
``record``: ``embeddings.embed_sequence`` reads both tables as one
operation, ``recurrent.bilstm_forward`` runs both LSTM directions over a
whole batch as one operation, and ``model.cross_entropy`` and
``model.orthogonal_penalty`` are one operation each.

Gradients are dense buffers of the tensor's shape, allocated on first
use. ``backward`` leaves them on the leaves alone: an operation's output
drops its gradient once that gradient has been passed on to the inputs, so
the buffers of intermediate values live only while the pass needs them.
``Tensor.accumulate_rows`` scatter-adds rows into a buffer in place, so a
lookup into a large table never builds a table-sized array of its own.
``sum_of_squares`` records a penalty over many tensors as one operation
and makes no table-sized array either: its value is one ``np.vdot`` per
tensor, and its backward adds into each gradient buffer in place, one
``row_blocks`` block at a time.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


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
        if self.grad is None:  # a copy: g may be another input's gradient too
            self.grad = np.array(np.broadcast_to(g, self.values.shape), np.float64, order="C")
        else:
            self.grad += g

    def accumulate_rows(self, idx: np.ndarray, rows: np.ndarray) -> None:
        """Add ``rows[i]`` to gradient row ``idx[i]``, counting rows over the
        flattened leading axes (a C-ordered buffer's view); repeated indices add up."""
        if self.grad is None:
            self.grad = np.zeros(self.values.shape)
        np.add.at(self.grad.reshape((-1,) + rows.shape[1:]), idx, rows)

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
        # drop the last input's gradient too, before the next op's backward runs
        op.output.grad = out_grad = g = None


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise operations


def _check_binary(a: Tensor, b: Tensor, op_name: str) -> None:
    # equal shapes, or one shape ends the other (a scalar, or a trailing broadcast)
    short, long = sorted((a.values.shape, b.values.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise ShapeError(
            f"{op_name}: shapes {a.values.shape} and {b.values.shape} "
            "are neither equal nor trailing-broadcastable"
        )


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast operand's gradient over the leading axes it lacks."""
    extra = np.ndim(g) - len(shape)
    if extra > 0:
        return np.asarray(np.sum(g, axis=tuple(range(extra))))
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")
    out = a.values + b.values

    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return record((a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    out = a.values * b.values
    av, bv = a.values, b.values

    def grad_fn(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return record((a, b), out, grad_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return record((a,), y, grad_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor, per_row: bool = False) -> Tensor:
    """Product ``a @ b`` of two matrices, a matrix and a vector, or a vector
    and a matrix: a vector on the left is a row of weights over ``b``'s rows.

    With a batch axis B on ``a``, one product per row: (B, m, n) @ (n, p)
    shares the matrix ``b``, (B, n) @ (B, n, p) weights each row's own rows,
    and with ``per_row`` (B, m, n) @ (B, n) takes each row's own vector: a
    (B, n) ``b`` and an (n, n) one look alike when B = n.
    """
    av, bv = a.values, b.values
    if per_row:
        ok = av.ndim == 3 and bv.shape == (av.shape[0], av.shape[2])
    elif (av.ndim, bv.ndim) == (2, 3):
        ok = av.shape == bv.shape[:2]
    else:
        ok = (av.ndim, bv.ndim) in ((2, 2), (2, 1), (1, 2), (3, 2)) and av.shape[-1] == bv.shape[0]
    if not ok:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    if per_row:
        out = np.matmul(av, bv[..., None])[..., 0]

        def grad_fn(g):
            return g[..., None] * bv[:, None, :], np.matmul(g[:, None, :], av)[:, 0]
    elif bv.ndim == 3:
        out = np.matmul(av[:, None, :], bv)[:, 0]

        def grad_fn(g):
            return np.matmul(bv, g[..., None])[..., 0], av[..., None] * g[:, None, :]
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


BLOCK = 1 << 16
# Entries per block of a streaming pass over a large tensor; the block size
# bounds the scratch memory (512 KB per float64 block). Measured over a
# 50k x 300 table on a 2-vCPU Xeon with 2 MB of L2 per core: blocks of
# 2^12-2^16 entries cost the same per entry, apart from per-call overhead
# (about 15 us per Adam block); from 2^17 up, where Adam's two scratch
# blocks fill L2, each entry costs 15-30% more.


def row_blocks(a: np.ndarray, scratch: int = 1) -> Iterator[tuple]:
    """Walk ``np.atleast_1d(a)`` in blocks of whole leading-axis rows, about
    ``BLOCK`` entries each (a row larger than that is a block of its own).

    Yields each block's row slice followed by ``scratch`` float64 arrays of
    that block's shape, views of buffers made once per call.
    """
    rows_view = np.atleast_1d(a)
    n, row_shape = len(rows_view), rows_view.shape[1:]
    rows = max(1, BLOCK // max(1, math.prod(row_shape)))
    buffers = [np.empty((min(rows, n),) + row_shape) for _ in range(scratch)]
    for lo in range(0, n, rows):
        size = min(rows, n - lo)
        yield (slice(lo, lo + size), *(b[:size] for b in buffers))


def sum_of_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Scalar sum of the squares of every entry of every tensor, in one tape op.

    Tensor by tensor, in the given order, it adds ``np.vdot(x, x)`` to a
    running total: one BLAS pass over each tensor, with no product array
    and no scratch (over a 50k x 300 table, 13 ms against 34 ms for a
    blocked ``np.sum`` and 73 ms for ``np.sum(x * x)``). The value is that
    of the chain of ``reduce_sum(mul(x, x))`` terms joined by ``add``
    within rounding, as ``np.vdot`` sums in another order than ``np.sum``.
    The gradients are the chain's to the bit: ``x * 2g`` is added into each
    tensor's existing buffer in place, one ``row_blocks`` block of scratch
    at a time, or written as the buffer when it has none, so the engine
    gets None for every input.
    """
    if not tensors:
        raise ShapeError("sum_of_squares: empty tensor list")
    total = None
    for t in tensors:
        term = np.vdot(t.values, t.values)
        total = term if total is None else total + term

    def grad_fn(g):
        two_g = 2.0 * g
        for t in tensors:
            if t.grad is None:
                t.grad = np.multiply(t.values, two_g, out=np.empty(t.values.shape))
                continue
            x_rows, g_rows = np.atleast_1d(t.values, t.grad)
            for part, step in row_blocks(x_rows):
                np.multiply(x_rows[part], two_g, out=step)
                g_rows[part] += step
        return (None,) * len(tensors)

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
    """Stack equal-shape vectors into a matrix, one vector per row: K (T,)
    parts give (K, T), and K (B, T) parts give (B, K, T)."""
    if not parts:
        raise ShapeError("stack_rows: empty part list")
    n = parts[0].values.shape
    for p in parts:
        if p.values.ndim not in (1, 2) or p.values.shape != n:
            raise ShapeError(
                f"stack_rows: expected equal-shape vectors, got {p.values.shape} vs {n}"
            )

    def grad_fn(g):
        return tuple(g[..., i, :].copy() for i in range(len(parts)))

    return record(tuple(parts), np.stack([p.values for p in parts], axis=-2), grad_fn)


def scale_rows(m: Tensor, w: Tensor) -> Tensor:
    """Scale each row of a matrix by the matching entry of a vector:
    (..., T, H) rows by (..., T) weights."""
    mv, wv = m.values, w.values
    if mv.ndim not in (2, 3) or mv.shape[:-1] != wv.shape:
        raise ShapeError(f"scale_rows: incompatible shapes {mv.shape} and {wv.shape}")

    def grad_fn(g):
        return g * wv[..., None], np.sum(g * mv, axis=-1)

    return record((m, w), mv * wv[..., None], grad_fn)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of the last axis, row by row.

    ``mask`` has the logits' shape. Masked positions get exactly zero; each
    row's unmasked outputs are positive and sum to one. Logits are shifted
    by their row's unmasked maximum before exponentiation, which leaves the
    result unchanged but keeps exp finite.
    """
    m = np.asarray(mask, dtype=bool)
    x = logits.values
    if x.ndim == 0 or m.shape != x.shape:
        raise ShapeError(f"masked_softmax: logits {x.shape} vs mask {m.shape}")
    top = x.max(axis=-1, keepdims=True, where=m, initial=-np.inf)
    e = np.exp(x - top, out=np.zeros(x.shape), where=m)
    total = e.sum(axis=-1, keepdims=True)
    if not total.all():  # an unmasked row's sum is at least exp(0) = 1
        raise EmptyAttentionError("masked_softmax: mask excludes every position of a row")
    out = e / total

    def grad_fn(g):
        # each row's g·out as one dot product, (1, T) @ (T, 1), as for a vector
        return (out * (g - np.matmul(g[..., None, :], out[..., :, None])[..., 0]),)

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
