import math

import numpy as np
import pytest

from radgrip.core import NumericError, default_config
from radgrip.mhe import SlidingWindow, WindowProblem
from radgrip.motion import (predict_array, process_residual,
                            transition_jacobian)


def _x(vx=0.0, vy=0.0, r=0.0, bx=0.0, by=0.0, br=0.0):
    return np.array([vx, vy, r, bx, by, br])


def _step(x, ax=0.0, ay=0.0, r=0.0, dt=0.01):
    return predict_array(x, ax, ay, r, dt)


def test_zero_input_fixed_point():
    for dt in (0.001, 0.01, 0.1):
        nxt = _step(_x(), dt=dt)
        assert nxt.tolist() == [0.0] * 6
    # rows step independently, each with its own input and dt
    rows = predict_array(np.zeros((3, 6)), np.zeros(3), np.zeros(3),
                         np.zeros(3), np.array([0.001, 0.01, 0.1]))
    assert rows.tolist() == [[0.0] * 6] * 3


def test_euler_step_longitudinal():
    nxt = _step(_x(vx=10.0), ax=2.0)
    assert nxt[0] == pytest.approx(10.02)
    assert nxt[1] == 0.0


def test_euler_step_coriolis():
    nxt = _step(_x(vx=10.0, r=1.0), r=1.0)
    assert nxt[0] == pytest.approx(10.0)
    assert nxt[1] == pytest.approx(-0.1)
    assert nxt[2] == pytest.approx(1.0)


def test_yaw_rate_is_algebraic_from_previous_gyro():
    nxt = _step(_x(r=0.5, br=0.02), r=0.3)
    assert nxt[2] == pytest.approx(0.3 - 0.02)


def test_bias_transparency():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (50, 6))
    U = rng.normal(0, 1, (50, 3))
    c = rng.normal(0, 1, (50, 3))
    X_shift = X.copy()
    X_shift[:, 3:] += c
    U_shift = U + c
    a = predict_array(X, *U.T, 0.01)
    b = predict_array(X_shift, *U_shift.T, 0.01)
    assert np.allclose(b[:, :3], a[:, :3], rtol=0.0, atol=1e-12)


def test_single_step_error_is_second_order():
    # smooth analytic truth with consistent curvilinear inputs
    def truth(t):
        vx = 20.0 + 2.0 * math.sin(t)
        vy = 0.8 * math.cos(1.3 * t)
        r = 0.3 * math.sin(2.0 * t)
        vx_dot = 2.0 * math.cos(t)
        vy_dot = -1.04 * math.sin(1.3 * t)
        ax = vx_dot - r * vy
        ay = vy_dot + r * vx
        return vx, vy, r, ax, ay

    t0 = 0.7
    errs = []
    for dt in (0.01, 0.005):
        vx, vy, r, ax, ay = truth(t0)
        pred = _step(_x(vx=vx, vy=vy, r=r), ax=ax, ay=ay, dt=dt)
        vx1, vy1, _, _, _ = truth(t0 + dt)
        errs.append(math.hypot(pred[0] - vx1, pred[1] - vy1))
    assert errs[0] / errs[1] >= 3.5


def _chain(x0, ax, ay, r, dt):
    """State chain of len(dt) + 1 rows following the model exactly."""
    X = [x0]
    for k in range(len(dt)):
        X.append(predict_array(X[-1], ax[k], ay[k], r[k], dt[k]))
    return np.array(X)


def test_process_residual_zero_for_model_pair():
    ax, ay, r = np.array([1.0, 0.3]), np.array([-0.5, 0.1]), [0.21, 0.2]
    dt = np.array([0.01, 0.004])
    X = _chain(_x(vx=12.0, vy=0.4, r=0.2, bx=0.05), ax, ay, r, dt)
    res = process_residual(X, ax, ay, r, dt)
    assert res.shape == (2, 6)
    assert np.allclose(res, 0.0, atol=1e-12)


def test_process_residual_whitening():
    # variance 0.01 on vx per nominal dt: the window whitens a 0.1 error
    # over a grid step to 1, and scales the variance with the step length
    cfg = default_config()
    cfg.covariances.Sigma_w = np.array([0.01, 1.0, 1.0, 1.0, 1.0, 1.0])
    win = SlidingWindow(cfg)
    u = (0.0, 0.0, 0.0, 0.0)
    win.push_state(0.0, u)
    win.X[0, 0] = 5.0
    win.push_state(0.01, u)
    win.push_state(0.015, u, grid=False)
    win.X[1:, 0] += 0.1
    problem = WindowProblem(win, cfg.initial_params, cfg)
    res = problem.residuals(problem.z_init())[problem.slices["process"]]
    res = res.reshape(2, 6)
    assert res[0, 0] == pytest.approx(1.0)
    assert res[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res[:, 1:], 0.0)
    X = win.X
    w = 1.0 / np.sqrt(cfg.covariances.Sigma_w * np.array([[1.0], [0.5]]))
    assert np.allclose(process_residual(X, *np.zeros((3, 3)),
                                        np.array([0.01, 0.005])) * w, res)


def test_process_residual_rejects_nonpositive_dt():
    # a push at an existing time returns that state's row and adds none,
    # so no process residual is ever formed over dt <= 0
    cfg = default_config()
    win = SlidingWindow(cfg)
    u = (0.0, 0.0, 0.0, 0.0)
    win.push_state(0.0, u)
    assert win.push_state(0.0, u) == 0
    assert win.push_state(0.0, u, grid=False) == 0
    assert len(win.t) == 1
    problem = WindowProblem(win, cfg.initial_params, cfg)
    assert len(problem.residuals(problem.z_init())[
        problem.slices["process"]]) == 0


def test_nonfinite_state_raises_numeric_error():
    cfg = default_config()
    win = SlidingWindow(cfg)
    u = (0.0, 0.0, 0.0, 0.0)
    win.push_state(0.0, u)
    win.push_state(0.01, u)
    win.X[0, 0] = float("nan")
    problem = WindowProblem(win, cfg.initial_params, cfg)
    with pytest.raises(NumericError, match="prior_state"):
        problem.check_finite(problem.residuals(problem.z_init()))


def test_transition_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    X = rng.normal(0, 2, (20, 6))
    U = rng.normal(0, 1, (20, 3))
    dt = 0.01
    F = transition_jacobian(X, dt)
    assert F.shape == (20, 6, 6)
    h = 1e-6
    for j in range(6):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += h
        Xm[:, j] -= h
        fd = (predict_array(Xp, *U.T, dt)
              - predict_array(Xm, *U.T, dt)) / (2 * h)
        assert np.allclose(F[:, :, j], fd, atol=1e-8)
