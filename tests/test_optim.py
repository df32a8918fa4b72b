import numpy as np
import pytest

from flowpose import InvalidInputError, NumericalError, adam_init, adam_step, finite_diff_check
from flowpose.optim import _huber_parts


def test_smooth_l1_examples():
    vals, g = _huber_parts(np.array([0.0, 0.5, 2.0]))
    assert vals[0] == 0.0 and g[0] == 0.0
    assert vals[1] == pytest.approx(0.125, abs=1e-15)
    assert vals[2] == pytest.approx(1.5, abs=1e-15)
    assert g[2] == 1.0


def test_smooth_l1_sums_components():
    vals, g = _huber_parts(np.array([0.5, 2.0, -3.0]))
    assert vals.sum() == pytest.approx(0.125 + 1.5 + 2.5, abs=1e-12)
    assert np.array_equal(g, [0.5, 1.0, -1.0])


def test_smooth_l1_symmetry():
    rng = np.random.default_rng(0)
    r = rng.normal(scale=2.0, size=100)
    assert _huber_parts(r)[0].sum() == pytest.approx(_huber_parts(-r)[0].sum(), rel=1e-15)


def test_smooth_l1_continuous_at_threshold():
    eps = 1e-9
    below_v, below_g = _huber_parts(np.array([1.0 - eps]))
    above_v, above_g = _huber_parts(np.array([1.0 + eps]))
    at_v, at_g = _huber_parts(np.array([1.0]))
    assert abs(below_v[0] - at_v[0]) < 1e-8 and abs(above_v[0] - at_v[0]) < 1e-8
    assert abs(below_g[0] - at_g[0]) < 1e-8 and abs(above_g[0] - at_g[0]) < 1e-8


def test_adam_zero_grad_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    state = adam_init(p)
    new_p, new_state = adam_step(state, p, np.zeros(3), lr=0.1)
    assert np.array_equal(new_p, p)
    assert new_state.step == 1


def test_adam_first_step():
    state = adam_init(np.zeros(1))
    p, _ = adam_step(state, np.zeros(1), np.ones(1), lr=0.001)
    assert abs(p[0] + 0.001) < 1e-6


def test_adam_quadratic_matches_scalar_reference():
    # Independent scalar-float reference implementation.
    m = v = 0.0
    p_ref = 1.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    trajectory = []
    for t in range(1, 101):
        g = 2.0 * p_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        trajectory.append(p_ref)
    assert abs(p_ref) < 0.05

    p = np.array([1.0])
    state = adam_init(p)
    for t in range(100):
        p, state = adam_step(state, p, 2.0 * p, lr=0.1)
        assert abs(p[0] - trajectory[t]) < 1e-12


def test_adam_deterministic():
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=10)
    g = rng.normal(size=10)
    a, sa = adam_step(adam_init(p0), p0, g, lr=0.01)
    b, sb = adam_step(adam_init(p0), p0, g, lr=0.01)
    assert np.array_equal(a, b)
    assert np.array_equal(sa.m, sb.m) and np.array_equal(sa.v, sb.v)


def test_adam_shape_mismatch():
    state = adam_init(np.zeros(3))
    with pytest.raises(InvalidInputError):
        adam_step(state, np.zeros(3), np.zeros(4), lr=0.1)


def test_finite_diff_exact_for_quadratic():
    A = np.diag([1.0, 2.0, 3.0])

    def loss(p):
        return float(p @ A @ p), 2.0 * A @ p

    rng = np.random.default_rng(4)
    err = finite_diff_check(loss, rng.normal(size=3), step=1e-5)
    assert err < 1e-8


def test_finite_diff_smooth_l1_away_from_kink():
    rng = np.random.default_rng(5)
    r = rng.normal(size=20)
    r = r[np.abs(np.abs(r) - 1.0) > 1e-3]  # stay clear of the threshold

    def loss(p):
        vals, g = _huber_parts(p)
        return vals.sum(), g

    assert finite_diff_check(loss, r, step=1e-5) < 1e-5


def test_finite_diff_reports_bad_component():
    def loss(p):
        if p[1] > 0.5:
            return float("nan"), np.zeros(2)
        return float(p.sum()), np.ones(2)

    with pytest.raises(NumericalError, match="component 1"):
        finite_diff_check(loss, np.array([0.0, 0.5 - 1e-6]), step=1e-5)
