"""Flow refinement toward a target field via a coarse correction grid.

The refiner stands in for per-scene fine-tuning of a flow network: a
zero-initialized residual grid at 1/stride resolution, Gaussian-smoothed
and bilinearly upsampled, is added to the base flow and trained with Adam
against the target under a smooth-L1 objective.  The smoothing plays the
role of a network's smoothness prior; early stopping (a small epoch
budget) keeps the refined flow from collapsing onto the target's errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import FlowField
from .optim import _huber, adam_init, adam_step
from .raster import TargetFlow


@dataclass(frozen=True, eq=False)
class CorrectionGrid:
    """Residual flow values on a coarse grid, ``(gh, gw, 2)`` pixels."""

    values: np.ndarray
    stride: int
    sigma: float

    def __post_init__(self):
        if int(self.stride) < 1:
            raise InvalidInputError("stride must be >= 1")
        if self.sigma < 0:
            raise InvalidInputError("sigma must be >= 0")
        object.__setattr__(self, "stride", int(self.stride))
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 2:
            raise InvalidInputError(f"values: expected (gh, gw, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("values: non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def grid_shape(width: int, height: int, stride: int) -> tuple[int, int]:
    """Grid dimensions covering the image: ``ceil(dim / stride)``."""
    return ceil(height / stride), ceil(width / stride)


def init_refiner(width: int, height: int, stride: int = 8,
                 sigma: float = 1.0) -> CorrectionGrid:
    """Zero correction grid for the given image size; applying it is a no-op."""
    if width < 1 or height < 1:
        raise InvalidInputError("init_refiner: image dimensions must be positive")
    gh, gw = grid_shape(width, height, stride)
    return CorrectionGrid(np.zeros((gh, gw, 2)), stride, sigma)


def _gauss_kernel(sigma: float, reach: int) -> np.ndarray:
    """Normalized Gaussian taps out to ``3 * sigma``, but no farther than
    ``reach`` on either side."""
    radius = max(1, min(ceil(3.0 * sigma), reach))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


@lru_cache(maxsize=64)
def _axis_operator(n_out: int, stride: int, n_in: int, sigma: float) -> np.ndarray:
    """``(n_out, n_in)`` matrix ``M = U @ S`` of one image axis.

    ``S`` is the Gaussian blur renormalized at the borders: each output is
    the kernel-weighted average of the in-range neighbors, so a constant
    grid stays constant (``sigma = 0`` is no blur).  ``U`` is the bilinear
    upsampling that puts output pixel centers at ``(i + 0.5) / stride - 0.5``
    in grid units, clamped to the grid.  The result is cached and read-only.
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
    i0 = np.minimum(np.floor(c).astype(np.intp), max(n_in - 2, 0))
    frac = c - i0
    rows = np.arange(n_out)
    upsample = np.zeros((n_out, n_in))
    np.add.at(upsample, (rows, i0), 1.0 - frac)
    np.add.at(upsample, (rows, np.minimum(i0 + 1, n_in - 1)), frac)
    op = upsample @ blur
    op.setflags(write=False)
    return op


def _operators(height: int, width: int, grid_hw: tuple[int, int], stride: int,
               sigma: float) -> tuple[np.ndarray, np.ndarray]:
    gh, gw = grid_hw
    return (_axis_operator(height, int(stride), gh, float(sigma)),
            _axis_operator(width, int(stride), gw, float(sigma)))


def _correction(values: np.ndarray, m_y: np.ndarray, m_x: np.ndarray) -> np.ndarray:
    """``m_y @ G @ m_x.T`` for each channel ``G`` of the ``(gh, gw, 2)`` grid."""
    return (m_y @ values.transpose(2, 0, 1) @ m_x.T).transpose(1, 2, 0)


def _correction_adjoint(grad_pix: np.ndarray, m_y: np.ndarray,
                        m_x: np.ndarray) -> np.ndarray:
    """Transpose of ``_correction``: ``m_y.T @ g @ m_x`` per channel."""
    return (m_y.T @ grad_pix.transpose(2, 0, 1) @ m_x).transpose(1, 2, 0)


def refiner_apply(grid: CorrectionGrid, base: FlowField) -> FlowField:
    """Base flow plus the smoothed, bilinearly upsampled correction."""
    expected = grid_shape(base.width, base.height, grid.stride)
    if grid.values.shape[:2] != expected:
        raise InvalidInputError(
            f"grid shape {grid.values.shape[:2]} does not match image "
            f"{base.width}x{base.height} at stride {grid.stride} (expected {expected})")
    m_y, m_x = _operators(base.height, base.width, expected, grid.stride, grid.sigma)
    return FlowField(base.uv + _correction(grid.values, m_y, m_x))


def flow_objective(grid_values: np.ndarray, base_uv: np.ndarray,
                   target_uv: np.ndarray, stride: int, sigma: float,
                   beta: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 between the corrected and target flow, with its gradient.

    The mean runs over pixels (components summed per pixel); the gradient is
    with respect to the grid values, backpropagated through the transposed
    axis operators.
    """
    height, width = base_uv.shape[:2]
    m_y, m_x = _operators(height, width, grid_values.shape[:2], stride, sigma)
    resid = base_uv + _correction(grid_values, m_y, m_x) - target_uv
    n = height * width
    value, g = _huber(resid, beta)
    return value / n, _correction_adjoint(g / n, m_y, m_x)


def refine_flow(base: FlowField, target: TargetFlow, epochs: int,
                lr: float = 0.05, stride: int = 8, sigma: float = 1.0,
                beta: float = 1.0) -> tuple[FlowField, np.ndarray]:
    """Run ``epochs`` Adam passes pulling the base flow toward the target.

    Returns the refined field and the per-epoch objective values (the value
    *before* each step).  ``epochs=0`` returns the base unchanged, and a
    target equal to the base is an exact fixed point for any epoch count.
    """
    if target.flow.uv.shape != base.uv.shape:
        raise InvalidInputError("target dimensions do not match the base flow")
    if epochs < 0:
        raise InvalidInputError("epochs must be >= 0")
    if stride < 1 or sigma < 0:
        raise InvalidInputError("stride must be >= 1 and sigma >= 0")
    if epochs == 0:
        return base, np.zeros(0)

    gh, gw = grid_shape(base.width, base.height, stride)
    values = np.zeros((gh, gw, 2))
    state = adam_init(values)
    losses = np.zeros(epochs)
    for e in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = flow_objective(values, base.uv, target.flow.uv,
                                        stride, sigma, beta)
        if not np.isfinite(loss):
            raise NumericalError(f"flow refinement diverged at epoch {e}")
        losses[e] = loss
        values, state = adam_step(state, values, grad, lr)
    # every other step is caught by the next epoch's evaluation
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"flow refinement diverged at epoch {epochs - 1}")
    refined = refiner_apply(CorrectionGrid(values, stride, sigma), base)
    return refined, losses
