import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpose import (FlowField, InvalidInputError, NumericalError, TargetFlow,
                      init_refiner, refine_flow, refiner_apply)
from flowpose.flow_refine import (CorrectionGrid, _axis_operator, _correction,
                                  _correction_adjoint, grid_shape)

from oracles import axis_operator_oracle, bilinear_oracle


def _target(uv, mask=None):
    field = FlowField(uv)
    if mask is None:
        mask = np.ones(uv.shape[:2], bool)
    return TargetFlow(flow=field, overlay_mask=mask)


def test_init_refiner_dimensions():
    assert init_refiner(64, 64, stride=8).values.shape == (8, 8, 2)
    assert init_refiner(65, 65, stride=8).values.shape == (9, 9, 2)
    assert np.all(init_refiner(64, 64).values == 0.0)


def test_zero_grid_reproduces_base():
    rng = np.random.default_rng(0)
    base = FlowField(rng.normal(size=(40, 56, 2)))
    grid = init_refiner(56, 40, stride=8, sigma=1.0)
    assert np.array_equal(refiner_apply(grid, base).uv, base.uv)


def test_constant_grid_constant_shift():
    base = FlowField(np.zeros((32, 32, 2)))
    values = np.zeros((4, 4, 2))
    values[:, :, 0] = 1.0
    out = refiner_apply(CorrectionGrid(values, stride=8, sigma=0.0), base)
    assert np.allclose(out.uv[:, :, 0], 1.0, atol=1e-12)
    assert np.all(out.uv[:, :, 1] == 0.0)


def test_constant_grid_survives_smoothing():
    # border-renormalized smoothing keeps constants exactly constant
    base = FlowField(np.zeros((32, 32, 2)))
    values = np.full((4, 4, 2), 2.5)
    out = refiner_apply(CorrectionGrid(values, stride=8, sigma=1.0), base)
    assert np.allclose(out.uv, 2.5, atol=1e-12)


def test_single_cell_matches_bilinear_oracle():
    base = FlowField(np.zeros((24, 24, 2)))
    values = np.zeros((3, 3, 2))
    values[1, 2, 0] = 4.0
    out = refiner_apply(CorrectionGrid(values, stride=8, sigma=0.0), base)
    grid_u = values[:, :, 0].tolist()
    for y in range(24):
        for x in range(24):
            want = bilinear_oracle(grid_u, 3, 3, 8, x, y)
            assert out.uv[y, x, 0] == pytest.approx(want, abs=1e-12)
            assert out.uv[y, x, 1] == 0.0


def test_grid_dimension_mismatch_rejected():
    base = FlowField(np.zeros((16, 16, 2)))
    with pytest.raises(InvalidInputError):
        refiner_apply(init_refiner(24, 24, stride=8), base)


def test_refine_flow_fixed_point_exact():
    rng = np.random.default_rng(1)
    base = FlowField(rng.normal(size=(32, 32, 2)))
    target = _target(base.uv.copy())
    for epochs in (0, 8, 50):
        out, _ = refine_flow(base, target, epochs=epochs)
        assert np.array_equal(out.uv, base.uv)


def test_refine_flow_zero_epochs_returns_base():
    base = FlowField(np.ones((16, 16, 2)))
    out, losses = refine_flow(base, _target(np.zeros((16, 16, 2))), epochs=0)
    assert out is base
    assert losses.size == 0


def test_refine_flow_converges_to_constant_target():
    # Regression baseline for the long-run behavior (recorded from this
    # implementation); the hard requirement is EPE < 0.1 px.
    base = FlowField(np.zeros((64, 64, 2)))
    uv = np.zeros((64, 64, 2))
    uv[:, :, 0] = 3.0
    out, losses = refine_flow(base, _target(uv), epochs=200, lr=0.05,
                              stride=8, sigma=1.0)
    epe = float(np.linalg.norm(out.uv - uv, axis=-1).mean())
    assert epe < 0.1
    assert epe == pytest.approx(0.0002098, rel=1e-2)
    # descent phase (every deployed budget lies inside it) is monotone
    diffs = np.diff(losses[:50])
    bad = np.where(diffs > 1e-9)[0]
    assert bad.size == 0, f"loss increased at step {bad[0] + 1}"


def test_refine_flow_dimensions_and_finiteness():
    rng = np.random.default_rng(2)
    base = FlowField(rng.normal(size=(20, 28, 2)) * 3)
    target = _target(rng.normal(size=(20, 28, 2)) * 3)
    out, losses = refine_flow(base, target, epochs=25)
    assert out.uv.shape == base.uv.shape
    assert np.all(np.isfinite(out.uv))
    assert np.all(np.isfinite(losses))


def test_smoothing_bounds_laplacian():
    # With sigma > 0 the correction from a single hot cell is spatially
    # smoother than its unsmoothed counterpart.
    base = FlowField(np.zeros((40, 40, 2)))
    values = np.zeros((5, 5, 2))
    values[2, 2, 0] = 8.0

    def max_laplacian(uv):
        interior = uv[1:-1, 1:-1, 0]
        lap = (uv[:-2, 1:-1, 0] + uv[2:, 1:-1, 0] + uv[1:-1, :-2, 0]
               + uv[1:-1, 2:, 0] - 4 * interior)
        return np.abs(lap).max()

    sharp = refiner_apply(CorrectionGrid(values, 8, 0.0), base)
    smooth = refiner_apply(CorrectionGrid(values, 8, 1.0), base)
    assert max_laplacian(smooth.uv) <= max_laplacian(sharp.uv)


def test_refine_flow_rejects_bad_input():
    base = FlowField(np.zeros((8, 8, 2)))
    with pytest.raises(InvalidInputError):
        refine_flow(base, _target(np.zeros((8, 9, 2))), epochs=1)
    with pytest.raises(InvalidInputError):
        refine_flow(base, _target(np.zeros((8, 8, 2))), epochs=-1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_last_step_overflow_is_a_numerical_error():
    # the target is so far off that both steps push the single grid cell the
    # same way: the first lands near the largest float and the last overflows,
    # with no later evaluation to see it
    base = FlowField(np.zeros((1, 1, 2)))
    target = _target(np.array([[[1.5e308, 0.0]]]))
    with pytest.raises(NumericalError, match="diverged at epoch 1"):
        refine_flow(base, target, epochs=2, lr=1e308)


_SIGMAS = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 8), _SIGMAS,
       st.integers(0, 2**32 - 1))
def test_axis_operator_adjoint(n_out, stride, n_in, sigma, seed):
    op = _axis_operator(n_out, stride, n_in, sigma)
    assert op.shape == (n_out, n_in)
    # the matrix is the blur-then-upsample pipeline it replaces
    assert np.allclose(op, axis_operator_oracle(n_out, stride, n_in, sigma),
                       rtol=0.0, atol=1e-12)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_in)
    y = rng.normal(size=n_out)
    assert np.dot(op @ x, y) == pytest.approx(np.dot(x, op.T @ y), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 9), _SIGMAS,
       st.integers(0, 2**32 - 1))
def test_correction_adjoint(height, width, stride, sigma, seed):
    gh, gw = grid_shape(width, height, stride)
    m_y = _axis_operator(height, stride, gh, sigma)
    m_x = _axis_operator(width, stride, gw, sigma)
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(gh, gw, 2))
    pix = rng.normal(size=(height, width, 2))
    lhs = np.sum(_correction(grid, m_y, m_x) * pix)
    rhs = np.sum(grid * _correction_adjoint(pix, m_y, m_x))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
