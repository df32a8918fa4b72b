import numpy as np
import pytest

from flowpose import InvalidInputError, NumericalError, finite_diff_check
from flowpose.optim import _huber_parts, adam_step, descend

from oracles import functional_adam_step


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
    moments = np.zeros((2, 3))
    adam_step(p, np.zeros(3), moments, 1, lr=0.1)
    assert np.array_equal(p, [1.0, -2.0, 3.0])
    assert not moments.any()


def test_adam_first_step():
    p = np.zeros(1)
    adam_step(p, np.ones(1), np.zeros((2, 1)), 1, lr=0.001)
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
    moments = np.zeros((2, 1))
    for t in range(100):
        adam_step(p, 2.0 * p, moments, t + 1, lr=0.1)
        assert abs(p[0] - trajectory[t]) < 1e-12


def test_in_place_adam_matches_the_functional_form_bit_for_bit():
    # the refiners' parameter count scale: a 17-joint, 10-frame 3-D track
    # and its cameras are 540 values; gradients change scale over the run
    rng = np.random.default_rng(3)
    p = rng.normal(size=540)
    moments = np.zeros((2, 540))
    want_p, want_m, want_v = p.copy(), np.zeros(540), np.zeros(540)
    for t in range(1, 1501):
        g = rng.normal(size=540) * 10.0 ** rng.integers(-6, 3)
        g[rng.random(540) < 0.05] = 0.0
        lr = 0.001 if t % 2 else 0.05
        adam_step(p, g, moments, t, lr)
        want_p, want_m, want_v = functional_adam_step(want_p, g, want_m, want_v, t, lr)
        assert np.array_equal(p, want_p)
        assert np.array_equal(moments[0], want_m) and np.array_equal(moments[1], want_v)


def _quadratic(values=None):
    """``evaluate`` of ``sum(p**2)`` writing ``[total, 2 * total]``; the
    total at epoch ``e`` is ``values[e]`` when given."""
    calls = []

    def evaluate(params, row):
        row[0] = float(params @ params) if values is None else values[len(calls)]
        row[1] = 2.0 * row[0]
        calls.append(params.copy())
        return row[0], 2.0 * params
    return evaluate, calls


def test_descend_evaluates_then_yields_each_epoch_to_the_caller():
    evaluate, calls = _quadratic()
    p = np.array([1.0, -2.0])
    history = np.zeros((4, 2))
    before = np.geterr()
    epochs = []
    for e, grad in descend(evaluate, p, history, "test"):
        # the loop body runs with overflow and invalid operations silenced
        assert np.geterr()["over"] == np.geterr()["invalid"] == "ignore"
        assert np.array_equal(grad, 2.0 * p)
        p -= 0.25 * grad
        epochs.append(e)
    assert epochs == [0, 1, 2, 3]
    # each evaluation saw the previous epoch's step, and filled its row
    assert [c.tolist() for c in calls] == [[1.0, -2.0], [0.5, -1.0], [0.25, -0.5],
                                           [0.125, -0.25]]
    assert history[:, 0].tolist() == [5.0, 1.25, 0.3125, 0.078125]
    assert np.array_equal(history[:, 1], 2.0 * history[:, 0])
    assert np.geterr() == before


@pytest.mark.parametrize("terms, tail", [((), ""), (("twice",), ": twice=nan")])
def test_descend_names_the_diverged_epoch_and_terms(terms, tail):
    evaluate, _ = _quadratic([3.0, 2.0, float("nan"), 1.0])
    before = np.geterr()
    steps = []
    with pytest.raises(NumericalError, match=rf"^test diverged at epoch 2{tail}$"):
        for e, _ in descend(evaluate, np.zeros(1), np.zeros((4, 2)), "test", terms):
            steps.append(e)
    assert steps == [0, 1] and np.geterr() == before


def test_descend_checks_the_parameters_after_the_last_step():
    evaluate, calls = _quadratic([1.0, 1.0])
    p = np.zeros(2)
    with pytest.raises(NumericalError, match=r"^test diverged at epoch 1$"):
        for e, _ in descend(evaluate, p, np.zeros((2, 2)), "test", ("twice",)):
            p[0] = np.inf if e == 1 else 0.0
    assert len(calls) == 2


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


def test_finite_diff_refuses_a_non_finite_base_loss_and_a_misshapen_gradient():
    with pytest.raises(NumericalError, match="non-finite at the base point"):
        finite_diff_check(lambda p: (float("inf"), np.zeros(2)), np.zeros(2))
    with pytest.raises(InvalidInputError, match=r"gradient shape \(3,\) != params \(2,\)"):
        finite_diff_check(lambda p: (0.0, np.zeros(3)), np.zeros(2))
