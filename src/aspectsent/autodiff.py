"""Reverse-mode automatic differentiation over dense float64 tensors.

Values live in numpy arrays; the differentiation graph is a flat tape of
recorded operations replayed in reverse. A tape is activated as a context
manager, on one module-level stack of tapes for the process's one thread;
outside any tape, operations run forward-only, which is what evaluation
code uses.

The 2 operations here are numpy primitives that no model code calls, kept
for the benchmark's cases and the tests' composed references: ``add`` (+),
broadcasting an operand whose shape ends the other's, and ``reduce_sum``.

Each model operation, with a backward pass written by hand, is defined
where it is used and recorded through the public ``record``, with one
output or several: ``embeddings.embed_sequence`` reads both tables,
``embeddings.mean_embedding`` averages the rows, ``recurrent.bilstm_forward``
runs both LSTM directions, each ``attention`` stage gives its weights and
its products, ``model.heads`` every head's logits, and ``model.combined_loss``
the weighted objective, its cross-entropies and orthogonality penalties. A
batch runs each once over a leading axis B; a sequence, without it. The L2 term is
no operation: ``training.adam_step`` adds its closed-form gradient to each
parameter's in its scope.

Gradients are dense buffers of the tensor's shape, allocated on first
use. ``backward`` leaves them on the leaves alone: an operation's outputs
drop their gradients once these have been passed on to the inputs, so
the buffers of intermediate values live only while the pass needs them.
An operation reading rows of a large table adds their gradient through
``Tensor.accumulate_rows``, which keeps it row-sparse (a ``RowGrad``), as
``bilstm_forward`` does with its input gradient into the embedding tables.
"""

from __future__ import annotations

import weakref
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class EmptyAttentionError(ValueError):
    """An attention mask excludes every position of a row."""


class GraphError(RuntimeError):
    """Backward was requested from an invalid root."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class RowGrad(NamedTuple):
    """A row-sparse gradient of a matrix: ``sums[i]`` is the gradient of row
    ``rows[i]``, and every other row's is zero.

    ``rows`` holds distinct ids in ascending order.
    """

    rows: np.ndarray
    sums: np.ndarray

    def dense(self, shape: tuple) -> np.ndarray:
        out = np.zeros(shape)
        out[self.rows] = self.sums
        return out


def segment_sum(ids: np.ndarray, rows: np.ndarray, start: Optional[RowGrad] = None) -> RowGrad:
    """Each distinct id of ``start.rows`` and ``ids``, with the ``rows`` at its ids
    added in order onto its ``start`` sum, or onto zero: ``np.add.at``'s sums, to
    the bit. Level k of the packed rows holds each id's k-th row, the ids with the
    most rows first, so a level adds one contiguous block onto a prefix of the sums."""
    start = start or RowGrad(ids[:0], rows[:0])
    distinct, inverse = np.unique(np.concatenate([start.rows, ids]), return_inverse=True)
    group = inverse[len(start.rows):]  # each row's id, as its index in distinct
    counts = np.bincount(group, minlength=len(distinct))
    slot = np.empty_like(counts)  # each id's row in sums: the most rows first
    slot[(-counts).argsort(kind="stable")] = np.arange(len(distinct))
    active = np.bincount(counts)[::-1].cumsum()[::-1][1:]  # ids with more than k rows
    starts = active.cumsum() - active
    order = group.argsort(kind="stable")  # the rows id by id, each id's in their order
    level = np.arange(len(ids)) - (counts.cumsum() - counts)[group[order]]
    source = np.empty_like(order)
    source[starts[level] + slot[group[order]]] = order
    packed = rows[source]
    sums = np.zeros((len(distinct), rows.shape[1]))
    sums[slot[inverse[:len(start.rows)]]] = start.sums
    for lo, n in zip(starts.tolist(), active.tolist()):
        sums[:n] += packed[lo:lo + n]
    return RowGrad(distinct, sums[slot])


class Tensor:
    """Dense float64 array plus an optional same-shape gradient buffer.

    A leaf's gradient accumulates across backward passes until explicitly
    cleared, so backward from each term of an objective sums their
    gradients; the output of a recorded operation holds a gradient only
    during the backward pass that reaches it.
    A float64 array passed in is wrapped without a copy. The gradient is a
    ``RowGrad`` while only ``accumulate_rows`` has added to it.
    """

    __slots__ = ("values", "grad", "name", "tape")

    def __init__(self, values, name: Optional[str] = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: "np.ndarray | RowGrad | None" = None
        self.name = name
        self.tape: Optional["Tape"] = None

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, g) -> None:
        if self.grad is None:  # a copy: g may be another input's gradient too
            self.grad = np.array(np.broadcast_to(g, self.values.shape), np.float64, order="C")
        else:
            if isinstance(self.grad, RowGrad):
                self.grad = self.grad.dense(self.values.shape)
            self.grad += g

    def accumulate_rows(self, idx: np.ndarray, rows: np.ndarray) -> None:
        """Add ``rows[i]`` to gradient row ``idx[i]`` of this matrix; repeated
        indices add up, through ``segment_sum``. A dense gradient gets each
        distinct row's sum added on; otherwise the result is a ``RowGrad`` of
        the rows added so far, earlier calls first, equal to ``np.add.at`` into
        a zeroed buffer to the bit."""
        if isinstance(self.grad, np.ndarray):
            ids, sums = segment_sum(idx, rows)
            self.grad[ids] += sums
        else:
            self.grad = segment_sum(idx, rows, self.grad)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.values.shape})"


def parameter(values, name: Optional[str] = None) -> Tensor:
    """Create a named leaf tensor for a trainable parameter."""
    return Tensor(values, name=name)


class _TapeOp:
    __slots__ = ("inputs", "outputs", "grad_fn")

    def __init__(self, inputs, outputs, grad_fn):
        self.inputs = inputs
        self.outputs = outputs
        self.grad_fn = grad_fn


_TAPES: list = []  # the entered tapes, innermost last


def active_tape() -> Optional["Tape"]:
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Ordered record of operations; creation order is topological order.
    Entering pushes it on the module's stack of tapes; the innermost records."""

    def __init__(self):
        self.ops: list[_TapeOp] = []
        self.proxy = weakref.proxy(self)  # what outputs hold: tape and outputs form no cycle

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPES.pop()
        if popped is not self:
            raise GraphError("tape context exited out of order")
        return False

    def __len__(self) -> int:
        return len(self.ops)


def record(inputs: tuple, outputs, grad_fn: Callable):
    """Wrap ``outputs`` as the output of an operation on ``inputs``; a
    ``Tensor`` (such as ``embeddings.Lookup``) is the output itself. A tuple
    of outputs gives a tuple of ``Tensor``s, one per entry.

    On an active tape the operation is recorded: in ``backward``,
    ``grad_fn`` takes one gradient per output, None for an output that got
    none, and returns one gradient per input, or None for an input it has
    already updated itself, and each is added to that input's buffer.
    Outside any tape only the outputs are made. Every operation, here and in
    other modules, records through this function.

    A ``grad_fn`` whose input takes several terms that stand for composed
    ops adds each to the buffer on its own, in those ops' order, all but the
    last through ``Tensor.accumulate_grad``: the buffer then rounds as the
    ops would, and one sum of the terms would not.
    """
    outs = outputs if isinstance(outputs, tuple) else (outputs,)
    outs = tuple(o if isinstance(o, Tensor) else Tensor(o) for o in outs)
    tape = active_tape()
    if tape is not None:
        for out in outs:
            out.tape = tape.proxy
        tape.ops.append(_TapeOp(inputs, outs, grad_fn))
    return outs if isinstance(outputs, tuple) else outs[0]


def backward(root: Tensor) -> None:
    """Propagate gradients from a scalar root back through its tape.

    Every leaf reachable from the root gets its grad buffer populated
    (accumulating onto whatever was already there); the root's own grad is
    set to ones. An operation's outputs hand their gradients to the
    operation's inputs and then drop them, so a second pass over the same
    tape, from another root, adds only that root's gradient. Tape entries
    none of whose outputs feeds the root are skipped.
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
        out_grads = [out.grad for out in op.outputs]
        if all(g is None for g in out_grads):
            continue
        for tensor, g in zip(op.inputs, op.grad_fn(*out_grads)):
            if g is not None:
                tensor.accumulate_grad(g)
        for out in op.outputs:
            out.grad = None
        out_grads = g = None  # and the last input's gradient, before the next op's backward


def zero_grads(tensors: Sequence[Tensor]) -> None:
    """Clear every gradient, dense or row-sparse."""
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# the elementwise add, and sums


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
