import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowpose import (FlowField, FlowRefineParams, InvalidInputError, NumericalError,
                      TargetFlow, refine_flow)
from flowpose.flow_refine import _axis_operator, flow_objective, grid_shape, refiner_apply

from oracles import (axis_operator_oracle, bilinear_oracle, functional_adam_step,
                     interleaved_flow_objective, scatter_axis_operator)


def _target(uv, mask=None):
    field = FlowField(uv)
    if mask is None:
        mask = np.ones(uv.shape[:2], bool)
    return TargetFlow(flow=field, overlay_mask=mask)


def test_grid_shape_covers_the_image():
    assert grid_shape(64, 64, 8) == (8, 8)
    assert grid_shape(65, 65, 8) == (9, 9)
    assert grid_shape(56, 40, 8) == (5, 7)


def test_zero_grid_reproduces_base():
    rng = np.random.default_rng(0)
    base = FlowField(rng.normal(size=(40, 56, 2)))
    assert np.array_equal(refiner_apply(np.zeros((2, 5, 7)), base, 8, 1.0).uv, base.uv)


def test_constant_grid_constant_shift():
    base = FlowField(np.zeros((32, 32, 2)))
    values = np.zeros((2, 4, 4))
    values[0] = 1.0
    out = refiner_apply(values, base, 8, 0.0)
    assert np.allclose(out.uv[:, :, 0], 1.0, atol=1e-12)
    assert np.all(out.uv[:, :, 1] == 0.0)


def test_constant_grid_survives_smoothing():
    # border-renormalized smoothing keeps constants exactly constant
    base = FlowField(np.zeros((32, 32, 2)))
    out = refiner_apply(np.full((2, 4, 4), 2.5), base, 8, 1.0)
    assert np.allclose(out.uv, 2.5, atol=1e-12)


def test_single_cell_matches_bilinear_oracle():
    base = FlowField(np.zeros((24, 24, 2)))
    values = np.zeros((2, 3, 3))
    values[0, 1, 2] = 4.0
    out = refiner_apply(values, base, 8, 0.0)
    grid_u = values[0].tolist()
    for y in range(24):
        for x in range(24):
            want = bilinear_oracle(grid_u, 3, 3, 8, x, y)
            assert out.uv[y, x, 0] == pytest.approx(want, abs=1e-12)
            assert out.uv[y, x, 1] == 0.0


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
    out, losses = refine_flow(base, _target(uv), epochs=200,
                              params=FlowRefineParams(stride=8, sigma=1.0, lr=0.05))
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
    values = np.zeros((2, 5, 5))
    values[0, 2, 2] = 8.0

    def max_laplacian(uv):
        interior = uv[1:-1, 1:-1, 0]
        lap = (uv[:-2, 1:-1, 0] + uv[2:, 1:-1, 0] + uv[1:-1, :-2, 0]
               + uv[1:-1, 2:, 0] - 4 * interior)
        return np.abs(lap).max()

    sharp = refiner_apply(values, base, 8, 0.0)
    smooth = refiner_apply(values, base, 8, 1.0)
    assert max_laplacian(smooth.uv) <= max_laplacian(sharp.uv)


def test_refine_flow_rejects_bad_input():
    base = FlowField(np.zeros((8, 8, 2)))
    with pytest.raises(InvalidInputError):
        refine_flow(base, _target(np.zeros((8, 9, 2))), epochs=1)
    with pytest.raises(InvalidInputError):
        refine_flow(base, _target(np.zeros((8, 8, 2))), epochs=-1)


@pytest.mark.parametrize("setting", [
    {"epochs": 2.5}, {"epochs": True}, {"epochs": float("nan")}, {"epochs": "3"},
    {"stride": 2.5}, {"stride": 0}, {"stride": True},
    {"stride": 1e400}, {"sigma": float("inf")}, {"sigma": -0.5}, {"sigma": None},
    {"lr": float("nan")}, {"lr": "0.05"}, {"lr": True}, {"lr": -0.05}, {"sigma": True},
    {"stride": -8}, {"epochs": 10**400},
])
def test_refine_flow_rejects_bad_settings(setting):
    # every setting is checked before any work, so none trains or reports
    # divergence: the epoch count by refine_flow, the rest by FlowRefineParams;
    # the error names the setting
    base = FlowField(np.zeros((8, 8, 2)))
    [(field, _)] = setting.items()
    name = "learning rate" if field == "lr" else field
    with pytest.raises(InvalidInputError, match=f"^{name} "):
        if "epochs" in setting:
            refine_flow(base, _target(np.ones((8, 8, 2))), **setting)
        else:
            FlowRefineParams(**setting)


def test_refine_flow_rejects_an_epoch_count_too_large_to_record():
    base = FlowField(np.zeros((8, 8, 2)))
    with pytest.raises(InvalidInputError, match="epochs"):
        refine_flow(base, _target(np.ones((8, 8, 2))), epochs=10**30)


def test_divergence_inside_the_loop_names_the_epoch():
    # the first step overflows the grid, and the next evaluation sees it
    base = FlowField(np.zeros((8, 8, 2)))
    with pytest.raises(NumericalError, match=r"^flow refinement diverged at epoch 1$"):
        refine_flow(base, _target(np.ones((8, 8, 2))), 5, FlowRefineParams(lr=1e307))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_last_step_overflow_is_a_numerical_error():
    # the target is so far off that both steps push the single grid cell the
    # same way: the first lands near the largest float and the last overflows,
    # with no later evaluation to see it
    base = FlowField(np.zeros((1, 1, 2)))
    target = _target(np.array([[[1.5e308, 0.0]]]))
    with pytest.raises(NumericalError, match=r"^flow refinement diverged at epoch 1$"):
        refine_flow(base, target, epochs=2, params=FlowRefineParams(lr=1e308))


_SIGMAS = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 8), _SIGMAS,
       st.integers(0, 2**32 - 1))
def test_axis_operator_adjoint(n_out, stride, n_in, sigma, seed):
    op, _ = _axis_operator(n_out, stride, n_in, sigma)
    assert op.shape == (n_out, n_in)
    # the matrix is the blur-then-upsample pipeline it replaces
    assert np.allclose(op, axis_operator_oracle(n_out, stride, n_in, sigma),
                       rtol=0.0, atol=1e-12)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_in)
    y = rng.normal(size=n_out)
    assert np.dot(op @ x, y) == pytest.approx(np.dot(x, op.T @ y), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n_in", [1, 2, 5])
def test_axis_operator_with_a_blur_wider_than_the_grid(n_in):
    # every tap is 1 on the grid, so each output is the grid's mean
    op, _ = _axis_operator(12, 4, n_in, 1e30)
    assert np.allclose(op, 1.0 / n_in, rtol=0.0, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 140), st.integers(1, 16),
       st.one_of(st.just(0.0), st.floats(0.3, 3.0), st.just(1e30)))
def test_hat_upsampler_matches_the_scatter_oracle(n_out, stride, sigma):
    # on the refiner's grid for the axis, the hat is the scatter bit for bit,
    # and the transpose comes from the same build
    n_in = grid_shape(n_out, 1, stride)[1]
    m, m_t = _axis_operator(n_out, stride, n_in, sigma)
    assert m.tobytes() == scatter_axis_operator(n_out, stride, n_in, sigma).tobytes()
    assert m_t.flags.c_contiguous and m_t.tobytes() == m.T.copy().tobytes()
    assert not m.flags.writeable and not m_t.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 9), _SIGMAS,
       st.integers(0, 2**32 - 1))
def test_correction_adjoint(height, width, stride, sigma, seed):
    # the planar pair V -> M_y V M_x.T and G -> M_y.T G M_x, with the cached
    # contiguous transposes, are each other's adjoints
    gh, gw = grid_shape(width, height, stride)
    m_y, m_yt = _axis_operator(height, stride, gh, sigma)
    m_x, m_xt = _axis_operator(width, stride, gw, sigma)
    assert np.array_equal(m_yt, m_y.T) and np.array_equal(m_xt, m_x.T)
    assert m_yt.flags.c_contiguous and m_xt.flags.c_contiguous
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(2, gh, gw))
    pix = rng.normal(size=(2, height, width))
    lhs = np.sum((m_y @ grid @ m_xt) * pix)
    rhs = np.sum(grid * (m_yt @ pix @ m_x))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 9),
       st.one_of(_SIGMAS, st.just(1e30)), st.floats(0.03, 10.0),
       st.integers(0, 2**32 - 1))
@example(1, 1, 8, 1.0, 1.0, 0)
@example(37, 23, 9, 1e30, 6.0, 1)
def test_planar_objective_matches_interleaved_oracle(height, width, stride, sigma,
                                                     spread, seed):
    # the spread of the residuals sets the share of pixels past the
    # smooth-L1 threshold of 1
    rng = np.random.default_rng(seed)
    gh, gw = grid_shape(width, height, stride)
    grid = rng.normal(0.0, spread, size=(gh, gw, 2))
    base = rng.normal(0.0, spread, size=(height, width, 2))
    target = rng.normal(0.0, spread, size=(height, width, 2))
    value, grad = flow_objective(base, target, stride, sigma)(
        grid.transpose(2, 0, 1).copy())
    want_value, want_grad = interleaved_flow_objective(grid, base, target, stride,
                                                       sigma, 1.0)
    assert grad.shape == (2, gh, gw)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    # each gradient entry is a sum of slopes of at most 1 spread over the image
    assert np.max(np.abs(grad - want_grad.transpose(2, 0, 1)), initial=0.0) <= 1e-12 * max(
        np.abs(want_grad).max(), 1.0 / (height * width))


def _oracle_refine(base_uv, target_uv, epochs, lr, stride, sigma):
    """``refine_flow``'s loop on the interleaved oracle objective."""
    height, width = base_uv.shape[:2]
    values = np.zeros((*grid_shape(width, height, stride), 2))
    m = v = np.zeros_like(values)
    losses = []
    for t in range(1, epochs + 1):
        loss, grad = interleaved_flow_objective(values, base_uv, target_uv,
                                                stride, sigma, 1.0)
        losses.append(loss)
        values, m, v = functional_adam_step(values, grad, m, v, t, lr)
    m_y, _ = _axis_operator(height, stride, values.shape[0], sigma)
    m_x, _ = _axis_operator(width, stride, values.shape[1], sigma)
    corr = (m_y @ values.transpose(2, 0, 1) @ m_x.T).transpose(1, 2, 0)
    return base_uv + corr, np.array(losses)


# ``scale`` divides the flows, so it plays the part of a smooth-L1 threshold:
# a small one puts most pixels past the kink, a large one leaves most on
# the quadratic side
@pytest.mark.parametrize("shape, stride, sigma, scale, epochs", [
    ((32, 32), 8, 1.0, 1.0, 8),
    ((29, 45), 6, 0.0, 0.5, 12),
    ((17, 9), 4, 2.5, 3.0, 5),
    ((1, 1), 8, 1.0, 1.0, 3),
])
def test_refine_flow_matches_oracle_loop(shape, stride, sigma, scale, epochs):
    rng = np.random.default_rng(sum(shape) + epochs)
    base = FlowField(rng.normal(size=(*shape, 2)) * 2 / scale)
    target = _target(rng.normal(size=(*shape, 2)) * 2 / scale)
    out, losses = refine_flow(base, target, epochs,
                              FlowRefineParams(stride=stride, sigma=sigma, lr=0.1))
    want_uv, want_losses = _oracle_refine(base.uv, target.flow.uv, epochs, 0.1,
                                          stride, sigma)
    assert np.allclose(losses, want_losses, rtol=1e-12, atol=0.0)
    assert np.allclose(out.uv, want_uv, rtol=0.0, atol=1e-12 * np.abs(want_uv).max())
