"""Shared numerical machinery: the smooth-L1 penalty (threshold 1) of the
pose objective, Adam with fixed moment rates updating the refiners' arrays
in place, ``descend``, the one epoch loop of both refiners (each steps its
own parameters in the loop body), and finite-difference gradient checking.

All reductions elsewhere in the package are arithmetic means over the
enumerated indices, so the loss weights keep their meaning regardless of
sequence length or image size.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidInputError, NumericalError


def _huber_parts(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise smooth-L1 penalty of ``r`` at threshold 1, and its slope."""
    # No input validation: the pose objective's hot path.  The clipped
    # slope g is r inside the threshold and sign(r) outside, and
    # g * (r - g / 2) is then 0.5 * r**2 or |r| - 1 / 2.
    g = r.clip(-1.0, 1.0)
    return g * (r - 0.5 * g), g


# Adam's moment decay rates and the guard added to the step's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params: np.ndarray, grads: np.ndarray, moments: np.ndarray,
              step: int, lr: float) -> None:
    """Adam update number ``step`` (from 1), bias-corrected, in place.

    ``moments`` is the ``(2, *params.shape)`` stack of the first and second
    moments, zero before step 1; ``params`` and ``moments`` are overwritten.
    No input validation: the refiners' hot path, called once per epoch on
    arrays they own.  A zero gradient leaves the parameters exactly
    unchanged.
    """
    m, v = moments
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    den = np.sqrt(v / (1.0 - ADAM_BETA2 ** step))
    den += ADAM_EPS
    params -= lr * (m / (1.0 - ADAM_BETA1 ** step)) / den


def descend(evaluate, params: np.ndarray, history: np.ndarray, what: str,
            terms: tuple[str, ...] = ()) -> Iterator[tuple[int, np.ndarray]]:
    """Yields ``(epoch, grad)`` of ``evaluate(params, row)`` for each ``row``
    of ``history``, which ``evaluate`` fills, for the caller to step
    ``params``.  A non-finite total raises ``NumericalError`` naming
    ``what``, the epoch and the ``terms`` columns after the total, and so do
    non-finite ``params`` after the last epoch.  Overflow and invalid
    warnings are silenced, in the caller's loop body too."""
    with np.errstate(over="ignore", invalid="ignore"):
        for e, row in enumerate(history):
            total, grad = evaluate(params, row)
            if not isfinite(total):
                detail = " ".join(f"{name}={row[k]:g}" for k, name in enumerate(terms, 1))
                raise NumericalError(f"{what} diverged at epoch {e}" + (detail and f": {detail}"))
            yield e, grad
    # every other step is caught by the next epoch's evaluation
    if not np.all(np.isfinite(params)):
        raise NumericalError(f"{what} diverged at epoch {len(history) - 1}")


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
