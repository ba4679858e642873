"""LSTM and BiLSTM sequence encoders built on the autodiff tape.

Padding steps are skipped entirely: the cell state carries over unchanged
and the emitted row for a masked position is exactly zero, so appending
padding never perturbs the outputs for real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tensor


@dataclass
class LstmParams:
    """One direction's gate parameters.

    Input projections are input_width x cell_width, recurrent projections
    cell_width x cell_width, biases cell_width. The forget bias starts at 1
    so memory is retained early in training. Field order is the order of
    ``tensors()`` and of the initializer's random draws.
    """

    input_gate_w: Tensor
    input_gate_u: Tensor
    input_gate_b: Tensor
    forget_gate_w: Tensor
    forget_gate_u: Tensor
    forget_gate_b: Tensor
    output_gate_w: Tensor
    output_gate_u: Tensor
    output_gate_b: Tensor
    candidate_w: Tensor
    candidate_u: Tensor
    candidate_b: Tensor

    @property
    def input_width(self) -> int:
        return self.input_gate_w.values.shape[0]

    @property
    def cell_width(self) -> int:
        return self.input_gate_w.values.shape[1]

    def tensors(self):
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class HiddenStates:
    values: Tensor  # T x width; masked rows exactly zero
    mask: np.ndarray  # bool (T,)


def init_lstm_params(
    input_width: int, cell_width: int, rng: np.random.Generator, prefix: str = "lstm"
) -> LstmParams:
    bound = 1.0 / np.sqrt(cell_width)
    shapes = {"w": (input_width, cell_width), "u": (cell_width, cell_width), "b": cell_width}

    def init(name):
        if name == "forget_gate_b":
            values = np.ones(cell_width)
        else:
            values = rng.uniform(-bound, bound, size=shapes[name[-1]])
        return ad.parameter(values, f"{prefix}.{name}")

    return LstmParams(**{f.name: init(f.name) for f in fields(LstmParams)})


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
    cell_width = params.cell_width
    # batch the input projections once per call; steps then only index rows
    xi = ad.matmul(inputs, params.input_gate_w)
    xf = ad.matmul(inputs, params.forget_gate_w)
    xo = ad.matmul(inputs, params.output_gate_w)
    xc = ad.matmul(inputs, params.candidate_w)
    ui = ad.transpose(params.input_gate_u)
    uf = ad.transpose(params.forget_gate_u)
    uo = ad.transpose(params.output_gate_u)
    uc = ad.transpose(params.candidate_u)

    zero_row = Tensor(np.zeros(cell_width))
    h = zero_row
    c = zero_row
    rows: list[Optional[Tensor]] = [None] * len(mask)
    for t in order:
        if not mask[t]:
            rows[t] = zero_row
            continue
        i_gate = ad.sigmoid(ad.add(ad.add(ad.take_row(xi, t), ad.matvec(ui, h)), params.input_gate_b))
        f_gate = ad.sigmoid(ad.add(ad.add(ad.take_row(xf, t), ad.matvec(uf, h)), params.forget_gate_b))
        o_gate = ad.sigmoid(ad.add(ad.add(ad.take_row(xo, t), ad.matvec(uo, h)), params.output_gate_b))
        cand = ad.tanh(ad.add(ad.add(ad.take_row(xc, t), ad.matvec(uc, h)), params.candidate_b))
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, ad.tanh(c))
        rows[t] = h
    return rows


def lstm_forward(inputs: Tensor, params: LstmParams, mask) -> HiddenStates:
    """Left-to-right LSTM over an embedded sequence."""
    mask = np.asarray(mask, dtype=bool)
    _check_width(inputs, params)
    rows = _run_direction(inputs, params, mask, range(len(mask)))
    return HiddenStates(values=ad.stack_rows(rows), mask=mask)


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
    rows = [ad.concat([f, b]) for f, b in zip(fwd, bwd)]
    return HiddenStates(values=ad.stack_rows(rows), mask=mask)
