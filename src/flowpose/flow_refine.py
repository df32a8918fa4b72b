"""Flow refinement toward a target flow field via a coarse correction grid.

The refiner stands in for per-scene fine-tuning of a flow network: a
zero-initialized residual grid at 1/stride resolution, Gaussian-smoothed
and bilinearly upsampled, is added to the base flow and trained with Adam
against the target under a smooth-L1 objective.  The smoothing plays the
role of a network's smoothness prior; early stopping (a small epoch
budget) keeps the refined flow from collapsing onto the target's errors.

``flow_objective`` works on contiguous ``(2, H, W)`` planes and is built
once per frame pair, with ``d = base - target``.  An epoch forms
``r = M_y V M_x.T + d`` from the grid planes ``V``, its Huber slope
``g = clip(r, -1, 1)``, the value ``(g.r - g.g / 2) / n`` from two dot
products and the gradient ``M_y.T g M_x / n``, the ``1 / n`` on the grid.
Adam then updates the grid planes in place, in ``optim.descend``'s epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from .errors import InvalidInputError
from .geometry import FlowField, _count, _finite_number, _of_class, _zeros
from .optim import adam_step, descend


@dataclass(frozen=True)
class FlowRefineParams:
    """Flow-refiner settings plus the raster radius used for overlays."""

    stride: int = 8
    sigma: float = 1.0
    lr: float = 0.05
    radius: int = 15

    def __post_init__(self):
        object.__setattr__(self, "stride", _count(self.stride, "stride", 1))
        _finite_number(self.sigma, "sigma", 0)
        _finite_number(self.lr, "learning rate", 0)
        object.__setattr__(self, "radius", _count(self.radius, "radius"))


def grid_shape(width: int, height: int, stride: int) -> tuple[int, int]:
    """Grid dimensions covering the image: ``ceil(dim / stride)``."""
    return ceil(height / stride), ceil(width / stride)


def _gauss_kernel(sigma: float, reach: int) -> np.ndarray:
    """Normalized Gaussian taps out to ``3 * sigma``, but no farther than
    ``reach`` on either side."""
    radius = max(1, min(ceil(3.0 * sigma), reach))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


@lru_cache(maxsize=64)
def _axis_operator(n_out: int, stride: int, n_in: int,
                   sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(n_out, n_in)`` matrix ``M = U @ S`` of one image axis and a
    contiguous copy of ``M.T``, which a matmul reads about twice as fast as
    the strided view; both cached and read-only.

    ``S`` is the Gaussian blur renormalized at the borders: each output is
    the kernel-weighted average of the in-range neighbors, so a constant
    grid stays constant (``sigma = 0`` is no blur).  ``U`` is the bilinear
    upsampling: the hat ``max(0, 1 - |c - j|)`` of grid cell ``j`` at output
    pixel center ``c = (i + 0.5) / stride - 0.5``, clamped to the grid.
    """
    if sigma > 0:
        # a tap farther than n_in - 1 cells never lands on the grid
        k = _gauss_kernel(sigma, n_in - 1)
        r = len(k) // 2
        i = np.arange(n_in)
        offset = i[None, :] - i[:, None]
        blur = np.where(np.abs(offset) <= r, k[np.clip(offset + r, 0, 2 * r)], 0.0)
        blur /= blur.sum(axis=1, keepdims=True)
    else:
        blur = np.eye(n_in)
    c = np.clip((np.arange(n_out) + 0.5) / stride - 0.5, 0.0, n_in - 1.0)
    op = np.maximum(0.0, 1.0 - np.abs(c[:, None] - np.arange(n_in))) @ blur
    pair = op, op.T.copy()
    for m in pair:
        m.setflags(write=False)
    return pair


def refiner_apply(values: np.ndarray, base: FlowField, stride: int,
                  sigma: float) -> FlowField:
    """Base flow plus the smoothed, bilinearly upsampled correction, given as
    the ``(2, gh, gw)`` grid planes of ``grid_shape``."""
    gh, gw = values.shape[1:]
    m_y, _ = _axis_operator(base.height, stride, gh, sigma)
    _, m_xt = _axis_operator(base.width, stride, gw, sigma)
    uv = np.empty_like(base.uv)       # the correction, written through its planes
    np.matmul(m_y @ values, m_xt, out=uv.transpose(2, 0, 1))
    return FlowField(np.add(uv, base.uv, out=uv))


def flow_objective(base_uv: np.ndarray, target_uv: np.ndarray, stride: int,
                   sigma: float):
    """One frame pair's objective, built once; returns ``evaluate``.

    ``evaluate(values, row=None)`` takes the ``(2, gh, gw)`` grid planes of
    ``grid_shape`` and returns the mean over pixels of the two-component
    smooth-L1 between the corrected and the target flow, also written into
    ``row[0]``, and a fresh gradient in the grid planes.
    """
    height, width = base_uv.shape[:2]
    gh, gw = grid_shape(width, height, stride)
    m_y, m_yt = _axis_operator(height, stride, gh, sigma)
    m_x, m_xt = _axis_operator(width, stride, gw, sigma)
    d = np.subtract(base_uv.transpose(2, 0, 1), target_uv.transpose(2, 0, 1), order="C")
    half = np.empty((2, height, gw))                   # M_y V, then g M_x
    r, g = np.empty_like(d), np.empty_like(d)
    n = height * width

    def evaluate(values: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(1) if row is None else row
        np.matmul(m_y, values, out=half)
        np.matmul(half, m_xt, out=r)
        np.add(r, d, out=r)
        r.clip(-1.0, 1.0, out=g)
        row[0] = (np.vdot(g, r) - 0.5 * np.vdot(g, g)) / n
        np.matmul(g, m_x, out=half)
        return row[0], np.divide(m_yt @ half, n)

    return evaluate


def refine_flow(base: FlowField, target: FlowField, epochs: int,
                params: FlowRefineParams | None = None) -> tuple[FlowField, np.ndarray]:
    """Run ``epochs`` Adam passes pulling the base flow toward the target
    flow, at the stride, blur and rate of ``params`` (default
    ``FlowRefineParams()``); an argument of the wrong class raises ``TypeError``.

    Returns the refined field and the per-epoch objective values (the value
    *before* each step).  ``epochs=0`` returns the base unchanged, and a
    target equal to the base is an exact fixed point for any epoch count.
    """
    base, target = _of_class(base, FlowField, "base"), _of_class(target, FlowField, "target")
    params = _of_class(params, FlowRefineParams, "params", FlowRefineParams())
    if target.uv.shape != base.uv.shape:
        raise InvalidInputError("target dimensions do not match the base flow")
    epochs = _count(epochs, "epochs")
    if epochs == 0:
        return base, np.zeros(0)

    losses = _zeros((epochs, 1), "epochs")
    evaluate = flow_objective(base.uv, target.uv, params.stride, params.sigma)
    values = np.zeros((2, *grid_shape(base.width, base.height, params.stride)))
    moments = np.zeros((2, *values.shape))
    for e, grad in descend(evaluate, values, losses, "flow refinement"):
        adam_step(values, grad, moments, e + 1, params.lr)
    return refiner_apply(values, base, params.stride, params.sigma), losses[:, 0]
