import math

import numpy as np
import pytest

from radgrip.core import default_config
from radgrip.mhe import SlidingWindow, WindowProblem, output_rows
from radgrip.tire import (cornering_stiffness, force_gate, force_slip,
                          lateral_force_residual, magic_formula_derivs,
                          magic_formula_values, measured_lateral_forces,
                          model_lateral_forces, slip_angles, vertical_loads)

CFG = default_config()

# geometry used by the worked examples below
EX = default_config()
EX.m, EX.lf, EX.lr, EX.g, EX.hg = 800.0, 1.7, 1.5, 9.81, 0.3


def _x(vx, vy=0.0, r=0.0):
    return np.array([vx, vy, r, 0.0, 0.0, 0.0])


def _window(vx, ax=0.0, ay=0.0, delta=0.0, cfg=CFG):
    """Two-state window at constant speed with the given inputs."""
    win = SlidingWindow(cfg)
    win.push_state(0.0, (ax, ay, 0.0, delta))
    win.X[0, 0] = vx
    win.push_state(0.01, (ax, ay, 0.0, delta))
    return win


def _newest_row(win, P, cfg):
    """Output row of the window's newest state."""
    return output_rows(win.t[-1:], win.X[-1:], win.U[-1:], P, cfg)[0]


def _fy_states(problem):
    """Number of states with lateral-force rows (two per state)."""
    sl = problem.slices["lateral_force"]
    return (sl.stop - sl.start) // 2


def _residual(x, ay, P, cfg, ax=0.0, delta=0.0):
    """Whitened lateral-force residual of one state row."""
    fy = measured_lateral_forces(np.array([ay]), np.array([delta]), cfg)
    w = 1.0 / np.sqrt(cfg.covariances.Sigma_Fy)
    return lateral_force_residual(
        x[None], np.array([ax]), np.array([delta]), fy, P, cfg)[0] * w


def test_slip_angles_straight():
    assert slip_angles(50.0, 0.0, 0.0, 0.0, CFG).tolist() == [0.0, 0.0]


def test_slip_angle_front_oracle():
    af, _ = slip_angles(10.0, 1.0, 0.0, 0.0, CFG)
    assert af == pytest.approx(0.09966865249116203, abs=1e-12)


def test_slip_angle_rear_oracle():
    cfg = default_config()
    cfg.lr = 1.5
    _, ar = slip_angles(np.array([10.0, 10.0]), 1.0, 0.5, 0.0, cfg).T
    assert ar == pytest.approx(0.024994793618920157, abs=1e-12)


def test_slip_angles_match_world_frame_contact_velocities():
    # first principles in the world frame, sharing no code with tire: the
    # contact point of the axle at lever arm l moves at V + r z x R(psi)
    # (l, 0), and its slip angle is that velocity's heading less the
    # wheel's, psi + delta (delta on the front axle, 0 on the rear)
    rng = np.random.default_rng(20)
    n = 200
    vx, vy = rng.uniform(5.0, 70.0, n), rng.uniform(-5.0, 5.0, n)
    r, delta = rng.uniform(-1.5, 1.5, n), rng.uniform(-0.4, 0.4, n)
    psi = rng.uniform(-math.pi, math.pi, n)
    c, s = np.cos(psi), np.sin(psi)
    alpha = slip_angles(vx, vy, r, delta, CFG)
    for axle, lever, steer in ((0, CFG.lf, delta), (1, -CFG.lr, 0.0)):
        px, py = c * lever, s * lever
        wx = c * vx - s * vy - r * py
        wy = s * vx + c * vy + r * px
        heading = np.arctan2(wy, wx) - (psi + steer)
        expected = np.angle(np.exp(1j * heading))
        np.testing.assert_allclose(alpha[:, axle], expected,
                                   rtol=0.0, atol=1e-12)


def test_slip_angles_gate():
    # the gate keeps slip angles clear of the 1/vx singularity: the
    # solver forms no lateral-force row and the output no slip below it
    gate = force_gate(np.array([2.0, 2.0, 6.0, -6.0]),
                      np.array([0.0, 6.0, 0.0, 0.0]), 0.0, 0.0, CFG)
    assert gate.tolist() == [False, False, True, True]
    row = _newest_row(_window(2.0), CFG.initial_params, CFG)
    assert row.alpha_f is None and row.alpha_r is None


def test_static_vertical_load():
    Fzf, _ = vertical_loads(0.0, 0.0, EX)
    assert Fzf == pytest.approx(3678.75)


def test_vertical_load_brake_transfer():
    Fzf, _ = vertical_loads(0.0, -10.0, EX)
    assert Fzf == pytest.approx(3678.75 + 750.0)


def test_vertical_load_sum_conserved():
    rng = np.random.default_rng(1)
    vx, ax = rng.uniform(0, 70, 50), rng.uniform(-20, 10, 50)
    Fzf, Fzr = vertical_loads(vx, ax, EX).T
    aero = 0.5 * (EX.Czf + EX.Czr) * EX.rho * vx * vx * EX.A
    assert np.allclose(Fzf + Fzr - EX.m * EX.g - aero, 0.0, atol=1e-8)


def test_vertical_load_domain_error():
    # a nonphysical load is no error: the output row leaves slip and
    # force fields empty there
    Fzf, _ = vertical_loads(10.0, 60.0, EX)
    assert Fzf < 0.0
    row = _newest_row(_window(10.0, ax=60.0, cfg=EX),
                      EX.initial_params, EX)
    assert row.alpha_f is None and row.Fyf is None and row.beta is None
    row = _newest_row(_window(10.0, cfg=EX), EX.initial_params, EX)
    assert row.alpha_f is not None and row.Fyf is not None


def test_nonpositive_load_forms_no_lateral_force_rows():
    # above the speed gate, 100 m/s^2 of measured acceleration puts the
    # front load below zero, where Fz*Y and its partials change sign: the
    # window forms no lateral-force rows there
    assert vertical_loads(30.0, 100.0, CFG)[0] < 0.0
    assert not force_gate(30.0, 0.0, 100.0, 0.0, CFG)
    problem = WindowProblem(_window(30.0, ax=100.0),
                            CFG.initial_params, CFG)
    assert _fy_states(problem) == 0
    assert _fy_states(WindowProblem(_window(30.0, ax=10.0),
                                    CFG.initial_params, CFG)) == 2


def test_block_output_rows_equal_one_call_per_state():
    # the states of one window straddle the gate: below the speed gate,
    # above it, and above it at a non-positive front load; each gated
    # value must land on its own row
    rng = np.random.default_rng(3)
    vx = np.array([20.0, 3.0, 10.0, 35.0, 4.0, 25.0, 10.0, 60.0])
    ax = np.array([1.0, 0.0, 60.0, -8.0, 2.0, 0.5, -1.0, 3.0])
    gated_out = [False, True, True, False, True, False, False, False]
    n = len(vx)
    X = np.column_stack((vx, rng.uniform(-1.0, 1.0, (n, 2)),
                         rng.uniform(-0.1, 0.1, (n, 3))))
    U = np.column_stack((ax, rng.uniform(-10.0, 10.0, n), X[:, 2],
                         rng.uniform(-0.1, 0.1, n)))
    t = 0.01 * np.arange(n)
    P = EX.initial_params * rng.uniform(0.8, 1.2, 12)
    rows = output_rows(t, X, U, P, EX)
    assert rows == [output_rows(t[k:k + 1], X[k:k + 1], U[k:k + 1], P,
                                EX)[0] for k in range(n)]
    lateral = [(r.alpha_f, r.alpha_r, r.Fyf, r.Fyr, r.beta) for r in rows]
    assert [all(v is None for v in lat) for lat in lateral] == gated_out
    assert all(None not in lat for lat, out in zip(lateral, gated_out)
               if not out)
    assert [r.t for r in rows] == t.tolist()
    assert [r.beta for r in rows if r.beta is not None] == pytest.approx(
        [math.atan(x[1] / x[0]) for x, out in zip(X, gated_out) if not out],
        rel=1e-15, abs=0.0)


P_EX = np.array([10.0, 1.9, 1.0, 0.97, 0.0, 0.0])


def test_magic_formula_zero_at_origin():
    assert magic_formula_values(0.0, P_EX) == 0.0


def test_magic_formula_shift_identity():
    p = np.array([8.0, 1.5, 0.9, 0.3, 0.04, 0.12])
    assert magic_formula_values(-p[4], p) == pytest.approx(p[5])


def test_magic_formula_pinned_value():
    # independent high-precision evaluation, frozen before the build
    assert magic_formula_values(0.08, P_EX) == pytest.approx(
        0.9055539862080681, abs=1e-14)


def test_magic_formula_odd_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p6 = np.array([rng.uniform(2, 30), rng.uniform(0.6, 3),
                       rng.uniform(0.5, 3), rng.uniform(-3, 0.9), 0.0, 0.0])
        x = rng.uniform(-0.5, 0.5)
        assert magic_formula_values(-x, p6) == pytest.approx(
            -magic_formula_values(x, p6), abs=1e-12)


def test_small_angle_slope_is_bcd():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = np.array([rng.uniform(2, 30), rng.uniform(0.6, 3),
                      rng.uniform(0.5, 3), rng.uniform(-3, 0.9),
                      rng.uniform(-0.05, 0.05), 0.0])
        h = 1e-7
        y = magic_formula_values(np.array([-p[4] + h, -p[4] - h]), p)
        slope = (y[0] - y[1]) / (2 * h)
        bcd = cornering_stiffness(p)
        assert slope == pytest.approx(bcd, rel=1e-6)


def test_magic_formula_derivs_match_fd():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p6 = np.array([rng.uniform(2, 30), rng.uniform(0.6, 3),
                       rng.uniform(0.5, 3), rng.uniform(-3, 0.9),
                       rng.uniform(-0.05, 0.05), rng.uniform(-0.3, 0.3)])
        s = rng.uniform(-0.3, 0.3)
        Y, dY_ds, dY_dp = magic_formula_derivs(s, p6)
        assert Y == pytest.approx(magic_formula_values(s, p6), abs=1e-12)
        h = 1e-7
        fd_s = (magic_formula_values(s + h, p6)
                - magic_formula_values(s - h, p6)) / (2 * h)
        assert dY_ds == pytest.approx(float(fd_s), rel=1e-5, abs=1e-8)
        for j in range(6):
            pp, pm = p6.copy(), p6.copy()
            pp[j] += h
            pm[j] -= h
            fd = (magic_formula_values(s, pp)
                  - magic_formula_values(s, pm)) / (2 * h)
            assert dY_dp[..., j] == pytest.approx(float(fd), rel=1e-5,
                                                  abs=1e-8)


def test_model_forces_zero_slip():
    P = np.array([10, 1.9, 1.0, 0.5, 0.0, 0.0, 12, 1.7, 1.0, 0.5, 0.0, 0.0])
    Fyf, Fyr = model_lateral_forces(_x(50.0), 0.0, 0.0, P, CFG)
    assert Fyf == pytest.approx(0.0)
    assert Fyr == pytest.approx(0.0)


def test_model_forces_scale_with_load():
    P = np.concatenate([P_EX, P_EX])
    X = np.stack([_x(20.0, vy=0.5, r=0.1), _x(25.0, vy=-0.3, r=0.05)])
    doubled = default_config()
    doubled.m = 2 * CFG.m
    doubled.Czf = 2 * CFG.Czf
    doubled.Czr = 2 * CFG.Czr
    f1 = model_lateral_forces(X, 0.0, 0.0, P, CFG).T
    f2 = model_lateral_forces(X, 0.0, 0.0, P, doubled).T
    assert f2[0] == pytest.approx(2 * f1[0])
    assert f2[1] == pytest.approx(2 * f1[1])


def test_measured_forces_zero_ay():
    assert measured_lateral_forces(0.0, 0.0, EX).tolist() == [0.0, 0.0]


def test_measured_forces_static_split():
    Fyf, Fyr = measured_lateral_forces(10.0, 0.0, EX)
    assert Fyf == pytest.approx(3750.0)
    assert Fyr == pytest.approx(4250.0)


def test_measured_forces_continuous_at_zero_delta():
    a = measured_lateral_forces(10.0, 0.0, EX)
    b = measured_lateral_forces(10.0, 1e-9, EX)
    assert a[0] == pytest.approx(b[0], rel=1e-9)


def test_measured_forces_steering_domain():
    # the split divides by cos(delta): the one force gate stops well short
    delta = np.radians([0.0, 30.0, 85.0, -85.0])
    assert force_gate(30.0, 0.0, 0.0, delta, EX).tolist() == [
        True, True, False, False]
    assert _fy_states(WindowProblem(_window(30.0, delta=math.radians(85.0),
                                            cfg=EX),
                                    EX.initial_params, EX)) == 0


def test_residual_zero_when_consistent():
    # build a state/param pair whose model force equals the static split
    P = np.concatenate([P_EX, P_EX])
    x = _x(30.0, vy=-0.5, r=0.15)
    Fyf, Fyr = model_lateral_forces(x, 0.0, 0.0, P, CFG)
    ay = (Fyf + Fyr) / CFG.m
    # solve the split for the ay that reproduces both axles is overdetermined;
    # check instead that the residual equals the whitened mismatch exactly
    res = _residual(x, ay, P, CFG)
    w = 1.0 / np.sqrt(CFG.covariances.Sigma_Fy)
    wb = CFG.lf + CFG.lr
    exp_f = (CFG.lr / wb * CFG.m * ay - Fyf) * w[0]
    exp_r = (CFG.lf / wb * CFG.m * ay - Fyr) * w[1]
    assert res[0] == pytest.approx(exp_f, abs=1e-9)
    assert res[1] == pytest.approx(exp_r, abs=1e-9)


def test_residual_gated_out():
    # below the speed gate the window carries no lateral-force rows
    problem = WindowProblem(_window(3.0, ay=1.0),
                            CFG.initial_params, CFG)
    assert _fy_states(problem) == 0
    problem = WindowProblem(_window(30.0, ay=1.0),
                            CFG.initial_params, CFG)
    assert _fy_states(problem) == 2


def test_residual_sign_under_d_inflation():
    # inflating front D at a positive-curve-value state lowers the residual
    P = np.concatenate([P_EX, P_EX])
    x = _x(30.0, vy=-1.5, r=0.0)  # force_slip(alpha_f) > 0 so Y > 0
    assert magic_formula_values(
        force_slip(slip_angles(30.0, -1.5, 0.0, 0.0, CFG)[0]), P[:6]) > 0
    base = _residual(x, 2.0, P, CFG)
    inflated = P.copy()
    inflated[2] *= 1.1
    bumped = _residual(x, 2.0, inflated, CFG)
    assert bumped[0] < base[0]


def test_cornering_stiffness():
    assert cornering_stiffness(np.array([10, 1.9, 1.0, 0, 0, 0])) \
        == pytest.approx(19.0)
    assert cornering_stiffness(np.array([10, 1.9, 0.0, 0, 0, 0])) == 0
    a = cornering_stiffness(np.array([10, 1.9, 1.2, 0, 0, 0]))
    b = cornering_stiffness(np.array([20, 1.9, 1.2, 0, 0, 0]))
    assert b == pytest.approx(2 * a)
