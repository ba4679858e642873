"""The BiLSTM sequence encoder, one autodiff tape op for both directions.

Each direction keeps its four gates side by side in one ``w``, ``u``, ``b``
block (see ``LstmParams``). ``bilstm_forward`` runs the encoder over one
sequence, or a padded batch of them, as one operation recorded through
``autodiff.record``, with the two directions in lockstep: loop step j
advances the forward direction at each sequence's j-th unmasked position
and the backward direction at its j-th from the end. Sequences run longest
first, so those still running at step j are a prefix of that order, and
per-step arrays hold real positions only, packed step after step. The
forward pass makes one input projection per direction, then per step one
recurrent product over (2, rows, H) and one tanh over both directions'
gates, keeping the activations. A logistic gate is σ(z) = 0.5 + 0.5·tanh(z/2):
the i, f and o columns of the projection, of u and of b are halved once
per call, which is exact, and each step finishes those blocks with
``*= 0.5`` and ``+= 0.5``. The backward pass is hand-written
backpropagation through time over those activations, in lockstep too.
The input gradient is made per distinct row of the tables an
``embeddings.Lookup`` input was read from, from each row's sum of gate
gradients, into the tables' row-sparse gradients; the projection is per token.

Padding steps are skipped entirely: the cell state carries over unchanged
and the emitted row for a masked position is exactly zero, so appending
padding never perturbs the outputs for real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tensor
from aspectsent.embeddings import Lookup

GATES = ("input", "forget", "output", "candidate")


@dataclass
class LstmParams:
    """One direction's parameters, four gate blocks of cell_width columns each.

    With H = cell_width, ``w`` is input_width x 4H, ``u`` H x 4H and ``b``
    4H; columns [g·H, (g+1)·H) belong to gate ``GATES[g]``. The forget
    block of ``b`` starts at 1 so memory is retained early in training.
    Field order is the order of ``tensors()``.
    """

    w: Tensor
    u: Tensor
    b: Tensor

    @property
    def input_width(self) -> int:
        return self.w.values.shape[0]

    @property
    def cell_width(self) -> int:
        return self.u.values.shape[0]

    def tensors(self):
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class HiddenStates:
    values: Tensor  # T x width; masked rows exactly zero


def init_lstm_params(
    input_width: int, cell_width: int, rng: np.random.Generator, prefix: str = "lstm"
) -> LstmParams:
    """Draw each gate's w, u and b in gate order, then join the gate blocks."""
    bound = 1.0 / np.sqrt(cell_width)
    blocks = {"w": [], "u": [], "b": []}
    for gate in GATES:
        blocks["w"].append(rng.uniform(-bound, bound, size=(input_width, cell_width)))
        blocks["u"].append(rng.uniform(-bound, bound, size=(cell_width, cell_width)))
        blocks["b"].append(
            np.ones(cell_width) if gate == "forget"
            else rng.uniform(-bound, bound, size=cell_width)
        )
    return LstmParams(**{
        name: ad.parameter(np.concatenate(parts, axis=-1), f"{prefix}.{name}")
        for name, parts in blocks.items()
    })


def _input_parts(inputs: Tensor, real: np.ndarray, T: int) -> list:
    """The input's rows as matrix ``Tensor``s side by side, each with the row each
    real position (flat in the (B, T) grid) reads: a ``Lookup``'s word table at the
    token ids and position table at the columns, or any other input's own rows."""
    if isinstance(inputs, Lookup):
        word, position = inputs.tables.word, inputs.tables.position
        return [(word, inputs.ids.reshape(-1)[real]), (position, real % T)]
    inputs.grad = np.zeros(inputs.values.shape) if inputs.grad is None else inputs.grad
    rows = Tensor(inputs.values.reshape(-1, inputs.values.shape[-1]))
    rows.grad = inputs.grad.reshape(rows.values.shape)  # a view: gradient buffers are C-ordered
    return [(rows, real)]


def bilstm_forward(
    inputs: Tensor, forward_params: LstmParams, backward_params: LstmParams, mask
) -> HiddenStates:
    """Bidirectional LSTM over (T, D) rows, or a batch (B, T, D) with a (B, T) mask.

    Row t of a sequence is [forward state at t, backward state at t]; the
    backward direction consumes the unmasked positions in reverse. The
    backward pass adds the input gradient in itself: a ``Lookup`` input's
    into its tables' gradients, any other input's into its own buffer.
    """
    directions = (forward_params, backward_params)
    x, H = inputs.values, forward_params.cell_width
    for params in directions:
        if x.ndim not in (2, 3) or x.shape[-1] != params.input_width or params.cell_width != H:
            raise ShapeError(
                f"lstm: input shape {x.shape} and forward cell width {H} do not match "
                f"parameter input width {params.input_width} and cell width {params.cell_width}"
            )
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape[:-1]:
        raise ShapeError(f"lstm: mask shape {m.shape} does not match input shape {x.shape}")
    m = m.reshape(-1, m.shape[-1])
    (B, T), D = m.shape, x.shape[-1]
    x_rows = x.reshape(B * T, D)

    # the real positions, flat, and each one's packed row in either direction
    # (array methods, not np. functions: this runs once per review explained)
    real = m.ravel().nonzero()[0]
    lengths = m.sum(axis=1)
    rank = (-lengths).argsort(kind="stable").argsort()  # longest first
    active = B - np.bincount(lengths).cumsum()[:-1]  # rows still running at each step
    starts = active.cumsum() - active  # first packed row of each step
    step = m.cumsum(axis=1).ravel()[real] - 1
    seq = real // T
    fwd = starts[step] + rank[seq]
    bwd = starts[lengths[seq] - 1 - step] + rank[seq]
    # per step: its packed rows, its and the previous step's rows in states and
    # cells (which keep B zero rows in front, the state before step 0), as ints
    # when one sequence runs (cheaper views), then lo, before and the row count
    prev = np.concatenate([[0], B + starts[:-1]]).astype(np.int64)
    spans = [
        (lo, B + lo, before, lo, before, 1) if n == 1 else
        (slice(lo, lo + n), slice(B + lo, B + lo + n), slice(before, before + n), lo, before, n)
        for lo, n, before in zip(starts.tolist(), active.tolist(), prev.tolist())
    ]

    # σ(z) = 0.5 + 0.5 tanh(z / 2): halve the i, f and o columns, and one tanh serves all
    halves = np.where(np.arange(4 * H) < 3 * H, 0.5, 1.0)
    R = len(real)
    x_real = x_rows if R == B * T else x_rows[real]
    projected = np.empty((R, 2, 4 * H))
    for d, (params, rows) in enumerate(zip(directions, (fwd, bwd))):
        projected[rows, d] = (x_real @ params.w.values + params.b.values) * halves
    u_half = np.stack([params.u.values for params in directions]) * halves
    # arrays are (row, direction, ...); the recurrent product uses (direction, row, ...) views
    gates = np.empty((R, 2, 4 * H))  # activations of the i, f, o and candidate blocks
    cells = np.zeros((B + R, 2, H))  # after the B zero rows, c after each packed row
    tanh_c = np.empty((R, 2, H))
    states = np.zeros((B + R, 2, H))  # likewise h
    gates_t, states_t = gates.transpose(1, 0, 2), states.transpose(1, 0, 2)
    i, f, o, cand = (gates[..., k * H:(k + 1) * H] for k in range(4))
    sigmoids = gates[..., :3 * H]
    for rows, after, before_rows, lo, before, n in spans:
        # uᵀh for both directions
        np.matmul(states_t[:, before:before + n], u_half, out=gates_t[:, lo:lo + n])
        z = gates[rows]
        z += projected[rows]
        np.tanh(z, out=z)
        sig = sigmoids[rows]
        sig *= 0.5
        sig += 0.5
        c = cells[after]
        np.multiply(f[rows], cells[before_rows], out=c)
        t = tanh_c[rows]
        np.multiply(i[rows], cand[rows], out=t)  # i * cand, until tanh(c) replaces it
        c += t
        np.tanh(c, out=t)
        np.multiply(o[rows], t, out=states[after])
    out = np.zeros((B * T, 2 * H))
    out[real, :H] = states[B + fwd, 0]
    out[real, H:] = states[B + bwd, 1]

    def grad_fn(g):
        # per row and direction, dz = [dc, dc, dh, dc] * scale, block by block
        # (i, f, o, candidate), and h_to_c is the part of dc that comes from dh
        # through h = o tanh(c); each step turns its rows of scale into dz in place
        before_rows = np.arange(R) + np.repeat(prev - starts, active)
        dz = np.empty((R, 2, 4, H))
        dz_if, dz_o, dz_c = dz[:, :, :2], dz[:, :, 2], dz[:, :, 3]
        np.multiply(cand * i, 1.0 - i, out=dz[:, :, 0])
        np.multiply(cells[before_rows] * f, 1.0 - f, out=dz[:, :, 1])
        np.multiply(tanh_c * o, 1.0 - o, out=dz_o)
        np.multiply(i, 1.0 - cand * cand, out=dz_c)
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        g = g.reshape(B * T, 2 * H)
        g_rows = np.empty((R, 2, H))
        g_rows[fwd, 0] = g[real, :H]
        g_rows[bwd, 1] = g[real, H:]
        u_t = np.stack([params.u.values.T for params in directions])
        dz_gates = dz.reshape(R, 2, 4 * H)
        dz_t = dz_gates.transpose(1, 0, 2)
        dh, dc = np.empty((B, 2, H)), np.empty((B, 2, H))
        dc_pair = dc[:, :, None]  # dc broadcast over the i and f blocks
        dh_next, dc_next = np.zeros((B, 2, H)), np.zeros((B, 2, H))  # what step j + 1 passes back
        dh_next_t = dh_next.transpose(1, 0, 2)
        for *_, lo, _, n in reversed(spans):
            hi, dh_j, dc_j = lo + n, dh[:n], dc[:n]
            np.add(dh_next[:n], g_rows[lo:hi], out=dh_j)
            np.multiply(dh_j, h_to_c[lo:hi], out=dc_j)
            dc_j += dc_next[:n]
            dz_if[lo:hi] *= dc_pair[:n]
            dz_o[lo:hi] *= dh_j
            dz_c[lo:hi] *= dc_j
            np.multiply(dc_j, f[lo:hi], out=dc_next[:n])
            np.matmul(dz_t[:, lo:hi], u_t, out=dh_next_t[:, :n])
        h_before = states[before_rows]
        du = [h_before[:, d].T @ dz_gates[:, d] for d in range(2)]
        db = np.sum(dz_gates, axis=0)
        del h_to_c, g_rows, h_before  # freed before the input gradient is made
        # per table and direction, each distinct row's sum of dz over the packed rows
        # that read it gives the table's block of dw and its part of the row's gradient
        dw, lo = [np.empty((D, 4 * H)) for _ in directions], 0
        for table, ids in _input_parts(inputs, real, T):
            block, grad = slice(lo, lo + table.values.shape[1]), 0.0
            for d, (params, rows) in enumerate(zip(directions, (fwd, bwd))):
                distinct, sums = ad.segment_sum(ids[rows.argsort()], dz_gates[:, d])
                dw[d][block] = table.values[distinct].T @ sums
                grad = grad + sums @ params.w.values[block].T
            table.accumulate_rows(distinct, grad)
            lo = block.stop
        return None, dw[0], du[0], db[0], dw[1], du[1], db[1]

    tensors = (inputs, *forward_params.tensors(), *backward_params.tensors())
    values = ad.record(tensors, out.reshape(x.shape[:-1] + (2 * H,)), grad_fn)
    return HiddenStates(values=values)
