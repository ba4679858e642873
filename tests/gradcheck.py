"""Central-difference gradient checking, the oracle for every op's backward,
and the tanh op that the checks put over an op's output as a non-linear root."""

from typing import Callable, Sequence

import numpy as np

from aspectsent.autodiff import (
    GraphError,
    NumericError,
    Tape,
    Tensor,
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
