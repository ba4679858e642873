"""The BiLSTM sequence encoder, built on the autodiff tape.

Each direction keeps its four gates side by side in one ``w``, ``u``, ``b``
block (see ``LstmParams``), so it makes one input projection per sequence,
and per step one recurrent matmul, one ``sigmoid`` and one ``tanh``.

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


def _run_direction(inputs: Tensor, params: LstmParams, mask: np.ndarray, order):
    """Run one direction over the given step order; returns per-position rows.

    Masked positions yield a shared zero row and do not advance the state.
    """
    H = params.cell_width
    # batch the input projection once per call; steps then only index rows
    projected = ad.matmul(inputs, params.w)
    u_t = ad.transpose(params.u)
    # int-vector indices of the gate blocks in z, and of i, f, o in sigmoid(z[:3H])
    sigmoid_part, cand_part = np.arange(3 * H), np.arange(3 * H, 4 * H)
    ifo_parts = [np.arange(g * H, (g + 1) * H) for g in range(3)]

    zero_row = Tensor(np.zeros(H))
    h = c = zero_row
    rows = [zero_row] * len(mask)
    for t in order:
        if not mask[t]:
            continue
        z = ad.add(ad.add(ad.gather_rows(projected, t), ad.matmul(u_t, h)), params.b)
        gates = ad.sigmoid(ad.gather_rows(z, sigmoid_part))
        cand = ad.tanh(ad.gather_rows(z, cand_part))
        i_gate, f_gate, o_gate = (ad.gather_rows(gates, part) for part in ifo_parts)
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, ad.tanh(c))
        rows[t] = h
    return rows


def bilstm_forward(
    inputs: Tensor, forward_params: LstmParams, backward_params: LstmParams, mask
) -> HiddenStates:
    """Bidirectional LSTM; row t is [forward state at t, backward state at t].

    The backward direction consumes the unmasked positions in reverse, so
    its state at position t summarizes everything from the sequence end
    back to t.
    """
    mask = np.asarray(mask, dtype=bool)
    _check_width(inputs, forward_params)
    _check_width(inputs, backward_params)
    fwd = _run_direction(inputs, forward_params, mask, range(len(mask)))
    bwd = _run_direction(inputs, backward_params, mask, range(len(mask) - 1, -1, -1))
    joined = ad.concat([ad.stack_rows(fwd), ad.stack_rows(bwd)], axis=1)
    return HiddenStates(values=joined)
