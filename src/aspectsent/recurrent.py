"""The BiLSTM sequence encoder, one autodiff tape op per direction.

Each direction keeps its four gates side by side in one ``w``, ``u``, ``b``
block (see ``LstmParams``). ``lstm_direction`` runs a whole direction as
one operation recorded through ``autodiff.record``: its forward pass makes
one input projection per sequence, then per step one recurrent
matrix-vector product, one sigmoid over the input, forget and output
blocks and one tanh over the candidate block, in plain numpy, keeping the
activations. Its backward pass is hand-written backpropagation through
time over those activations. ``bilstm_forward`` records three ops
whatever the length: two directions and one ``concat``.

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


def _check_width(inputs: Tensor, params: LstmParams) -> None:
    if inputs.values.ndim != 2 or inputs.values.shape[1] != params.input_width:
        raise ShapeError(
            f"lstm: input shape {inputs.values.shape} does not match "
            f"parameter input width {params.input_width}"
        )


def lstm_direction(inputs: Tensor, params: LstmParams, steps) -> Tensor:
    """Run one direction over the input rows ``steps``, in that order, as one tape op.

    Returns a T x H matrix whose row ``steps[j]`` is the state after step
    j; every other row is exactly zero. Each step computes
    ``z = (x w + uᵀh) + b``, squashes the gate blocks of z, then updates
    c and h, in the order the per-gate ops of the autodiff core would. The
    backward pass runs backpropagation through time over the gate
    activations and cell states the forward pass keeps.
    """
    steps = np.asarray(steps, dtype=np.int64)
    x, w, u, b = inputs.values, params.w.values, params.u.values, params.b.values
    H, n = params.cell_width, len(steps)
    # project every row, padding too: BLAS may round a product over a subset of
    # the rows differently, and this keeps each row's bits as the full product's
    projected = (x @ w)[steps]
    u_t = u.T.copy()  # contiguous, so uᵀh is a plain matrix-vector product
    gates = np.empty((n, 3 * H))  # sigmoid of the input, forget and output blocks
    cand = np.empty((n, H))
    cells = np.zeros((n + 1, H))  # cells[j + 1] is c after step j
    tanh_c = np.empty((n, H))
    states = np.zeros((n + 1, H))  # states[j] is h before step j
    for j in range(n):
        z = (projected[j] + u_t @ states[j]) + b
        gates[j] = ad.stable_sigmoid(z[:3 * H])
        cand[j] = np.tanh(z[3 * H:])
        cells[j + 1] = gates[j, H:2 * H] * cells[j] + gates[j, :H] * cand[j]
        tanh_c[j] = np.tanh(cells[j + 1])
        states[j + 1] = gates[j, 2 * H:] * tanh_c[j]
    out = np.zeros((x.shape[0], H))
    out[steps] = states[1:]

    def grad_fn(g):
        i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:]
        # per step, dz = [dc, dc, dh, dc] * scale, block by block (i, f, o, candidate),
        # and the part of dc that comes from dh through h = o tanh(c)
        scale = np.concatenate(
            [cand * i * (1.0 - i), cells[:-1] * f * (1.0 - f), tanh_c * o * (1.0 - o),
             i * (1.0 - cand * cand)],
            axis=1,
        )
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        g_rows = g[steps]
        dz = np.empty((n, 4 * H))
        carry = np.empty((4, H))  # rows dc, dc, dh, dc of the current step
        dc, dh = carry[0], carry[2]
        dh_next, dc_next = np.zeros(H), np.zeros(H)  # what step j + 1 passes back
        for j in range(n - 1, -1, -1):
            np.add(dh_next, g_rows[j], out=dh)
            np.multiply(dh, h_to_c[j], out=dc)
            dc += dc_next
            carry[1] = carry[3] = dc
            np.multiply(carry.reshape(-1), scale[j], out=dz[j])
            np.multiply(dc, f[j], out=dc_next)
            dh_next = u @ dz[j]
        dx = np.zeros(x.shape)
        dx[steps] = dz @ w.T
        return dx, x[steps].T @ dz, states[:-1].T @ dz, np.sum(dz, axis=0)

    return ad.record((inputs, params.w, params.u, params.b), out, grad_fn)


def bilstm_forward(
    inputs: Tensor, forward_params: LstmParams, backward_params: LstmParams, mask
) -> HiddenStates:
    """Bidirectional LSTM; row t is [forward state at t, backward state at t].

    The backward direction consumes the unmasked positions in reverse, so
    its state at position t summarizes everything from the sequence end
    back to t.
    """
    _check_width(inputs, forward_params)
    _check_width(inputs, backward_params)
    steps = np.flatnonzero(np.asarray(mask, dtype=bool))
    fwd = lstm_direction(inputs, forward_params, steps)
    bwd = lstm_direction(inputs, backward_params, steps[::-1])
    return HiddenStates(values=ad.concat([fwd, bwd], axis=1))
