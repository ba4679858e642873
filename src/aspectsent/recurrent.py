"""The BiLSTM sequence encoder, one autodiff tape op for both directions.

Each direction keeps its four gates side by side in one ``w``, ``u``, ``b``
block (see ``LstmParams``). ``bilstm_forward`` runs the encoder as one
operation recorded through ``autodiff.record``, with the two directions in
lockstep: loop step j advances the forward direction at the j-th unmasked
position and the backward direction at the j-th from the end. Its forward
pass makes one input projection per direction, then per step one recurrent
matrix-vector product per direction and one tanh over both directions'
gates, keeping the activations. A logistic gate is σ(z) = 0.5 + 0.5·tanh(z/2):
the input, forget and output columns of the projection, of uᵀ and of b are
halved once per call, which is exact, and each step finishes those blocks
with ``*= 0.5`` and ``+= 0.5``. Its backward pass is hand-written
backpropagation through time over those activations, in lockstep too.

Padding steps are skipped entirely: the cell state carries over unchanged
and the emitted row for a masked position is exactly zero, so appending
padding never perturbs the outputs for real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tensor

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


def bilstm_forward(
    inputs: Tensor, forward_params: LstmParams, backward_params: LstmParams, mask
) -> HiddenStates:
    """Bidirectional LSTM; row t is [forward state at t, backward state at t].

    The backward direction consumes the unmasked positions in reverse, so
    its state at position t summarizes everything from the sequence end
    back to t.
    """
    directions = (forward_params, backward_params)
    x, H = inputs.values, forward_params.cell_width
    for params in directions:
        if x.ndim != 2 or x.shape[1] != params.input_width or params.cell_width != H:
            raise ShapeError(
                f"lstm: input shape {x.shape} and forward cell width {H} do not match "
                f"parameter input width {params.input_width} and cell width {params.cell_width}"
            )
    steps = np.flatnonzero(np.asarray(mask, dtype=bool))
    reverse, n = steps[::-1], len(steps)
    # σ(z) = 0.5 + 0.5 tanh(z / 2): halve the i, f and o columns, and one tanh serves all
    halves = np.where(np.arange(4 * H) < 3 * H, 0.5, 1.0)
    # project every row, padding too, so a row's bits do not depend on the mask
    projected = np.empty((n, 2, 4 * H))
    for d, (params, order) in enumerate(zip(directions, (steps, reverse))):
        projected[:, d] = ((x @ params.w.values)[order] + params.b.values) * halves
    u_t = np.stack([params.u.values.T for params in directions]) * halves[:, None]
    gates = np.empty((n, 2, 4 * H))  # activations of the i, f, o and candidate blocks
    cells = np.zeros((n + 1, 2, H))  # cells[j + 1] is c after step j
    tanh_c = np.empty((n, 2, H))
    states = np.zeros((n + 1, 2, H))  # states[j] is h before step j
    i, f, o, cand = (gates[..., k * H:(k + 1) * H] for k in range(4))
    sigmoids, z, h_col = gates[..., :3 * H], gates[..., None], states[..., None]
    ig = np.empty((2, H))
    for j in range(n):
        np.matmul(u_t, h_col[j], out=z[j])  # one uᵀh per direction, each into its row
        a = gates[j]
        a += projected[j]
        np.tanh(a, out=a)
        sig = sigmoids[j]
        sig *= 0.5
        sig += 0.5
        c = cells[j + 1]
        np.multiply(f[j], cells[j], out=c)
        np.multiply(i[j], cand[j], out=ig)
        c += ig
        np.tanh(c, out=tanh_c[j])
        np.multiply(o[j], tanh_c[j], out=states[j + 1])
    out = np.zeros((x.shape[0], 2 * H))
    out[steps, :H] = states[1:, 0]
    out[reverse, H:] = states[1:, 1]

    def grad_fn(g):
        # per step and direction, dz = [dc, dc, dh, dc] * scale, block by block
        # (i, f, o, candidate), and h_to_c is the part of dc that comes from dh
        # through h = o tanh(c)
        scale = np.stack([cand * i * (1.0 - i), cells[:-1] * f * (1.0 - f),
                          tanh_c * o * (1.0 - o), i * (1.0 - cand * cand)], axis=2)
        scale_o = scale[:, :, 2]
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        g_rows = np.stack([g[steps, :H], g[reverse, H:]], axis=1)
        u = np.stack([params.u.values for params in directions])
        dz = np.empty((n, 2, 4, H))
        dz_o, dz_col = dz[:, :, 2], dz.reshape(n, 2, 4 * H, 1)
        dh, dc = np.empty((2, H)), np.empty((2, H))
        dc_blocks = dc[:, None]  # dc broadcast over the four gate blocks
        dh_next, dc_next = np.zeros((2, H)), np.zeros((2, H))  # what step j + 1 passes back
        dh_next_col = dh_next[..., None]
        for j in range(n - 1, -1, -1):
            np.add(dh_next, g_rows[j], out=dh)
            np.multiply(dh, h_to_c[j], out=dc)
            dc += dc_next
            np.multiply(scale[j], dc_blocks, out=dz[j])
            np.multiply(scale_o[j], dh, out=dz_o[j])
            np.multiply(dc, f[j], out=dc_next)
            np.matmul(u, dz_col[j], out=dh_next_col)
        dz = dz.reshape(n, 2, 4 * H)
        # both directions' rows of dz in position order, side by side: one product gives dw
        dz_pos = np.concatenate([dz[:, 0], dz[::-1, 1]], axis=1)
        dw = x[steps].T @ dz_pos
        dx = np.zeros(x.shape)
        dx[steps] = (dz_pos[:, :4 * H] @ forward_params.w.values.T
                     + dz_pos[:, 4 * H:] @ backward_params.w.values.T)
        du = [states[:-1, d].T @ dz[:, d] for d in range(2)]
        db = np.sum(dz, axis=0)
        return dx, dw[:, :4 * H], du[0], db[0], dw[:, 4 * H:], du[1], db[1]

    tensors = (inputs, *forward_params.tensors(), *backward_params.tensors())
    return HiddenStates(values=ad.record(tensors, out, grad_fn))
