"""Shared numerical machinery: smooth-L1 penalty, Adam, gradient checking.

All reductions elsewhere in the package are arithmetic means over the
enumerated indices, so the loss weights keep their meaning regardless of
sequence length or image size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalError


@dataclass(frozen=True)
class SmoothL1Config:
    """Threshold between the quadratic and linear branches of the penalty."""

    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise InvalidInputError("smooth-L1 beta must be positive")


def _huber_parts(r: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    # No input validation: hot path shared by every loss term.  The clipped
    # slope g is r / beta inside the threshold and sign(r) outside, and
    # g * (r - beta * g / 2) is then 0.5 * r**2 / beta or |r| - beta / 2.
    grad = np.divide(r, beta, out=np.empty_like(r))
    grad.clip(-1.0, 1.0, out=grad)
    return grad * (r - 0.5 * beta * grad), grad


def smooth_l1(residual, cfg: SmoothL1Config = SmoothL1Config()) -> tuple[float, np.ndarray]:
    """Smooth-L1 penalty of a residual array and its element-wise gradient.

    Per component ``r``: ``0.5 * r**2 / beta`` when ``|r| < beta``, else
    ``|r| - 0.5 * beta``; the returned value is the sum over components.
    Continuous with continuous first derivative at ``|r| = beta``.
    """
    r = np.asarray(residual, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("smooth_l1: non-finite residual")
    vals, grad = _huber_parts(r, cfg.beta)
    return float(vals.sum()), grad


@dataclass(frozen=True, eq=False)
class AdamState:
    """Step counter and moment accumulators shaped like the parameter vector."""

    step: int
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    """Fresh optimizer state for parameters of the given shape."""
    p = np.asarray(params, dtype=np.float64)
    return AdamState(0, np.zeros_like(p), np.zeros_like(p), beta1, beta2, eps)


def _epoch_history(epochs: int, *row: int) -> np.ndarray:
    """Zeroed per-epoch record; a count too large to allocate is bad input."""
    try:
        return np.zeros((epochs, *row))
    except (ValueError, MemoryError):
        raise InvalidInputError(f"epochs: cannot record {epochs} epochs") from None


def adam_step(state: AdamState, params, grads, lr: float):
    """One bias-corrected Adam update; returns ``(new_params, new_state)``.

    Deterministic: identical state and inputs give bit-identical outputs.
    A zero gradient leaves the parameters exactly unchanged.
    """
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if p.shape != g.shape or p.shape != state.m.shape:
        raise InvalidInputError(
            f"adam_step: shape mismatch params {p.shape}, grads {g.shape}, "
            f"state {state.m.shape}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = p - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(t, m, v, state.beta1, state.beta2, state.eps)


LossAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


def finite_diff_check(loss_and_grad: LossAndGrad, params, step: float = 1e-5) -> float:
    """Maximum relative error between analytic and central-difference gradients.

    ``loss_and_grad`` maps a parameter array to ``(value, gradient)``.  Each
    component is perturbed by ``+-step``; the relative error of component
    ``i`` is ``|analytic_i - numeric_i| / max(1e-8, |numeric_i|)``.
    """
    p = np.array(params, dtype=np.float64)
    value, analytic = loss_and_grad(p)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.isfinite(value):
        raise NumericalError("finite_diff_check: loss is non-finite at the base point")
    if analytic.shape != p.shape:
        raise InvalidInputError(
            f"finite_diff_check: gradient shape {analytic.shape} != params {p.shape}")
    numeric = np.empty(p.size)
    for i in range(p.size):
        q = p.copy()
        q.flat[i] += step
        hi = loss_and_grad(q)[0]
        q.flat[i] -= 2.0 * step
        lo = loss_and_grad(q)[0]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalError(
                f"finite_diff_check: non-finite loss when perturbing component {i}")
        numeric[i] = (hi - lo) / (2.0 * step)
    rel = np.abs(analytic.ravel() - numeric) / np.maximum(1e-8, np.abs(numeric))
    return float(rel.max())
