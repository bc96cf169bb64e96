import math

import numpy as np
import pytest

from radgrip.core import ImuSample, RadarPoint, RadarScan, default_config
from radgrip.mhe import Estimator, SlidingWindow
from radgrip.radar import (REJECT_ALIAS, REJECT_INNOVATION, REJECT_LOW_SNR,
                           bearing_vectors, body_projection, dealias,
                           doppler_residual, expected_doppler,
                           gate_points, scan_to_factors)
from radgrip.simgen import wrap

CFG = default_config()


def _x(vx=0.0, vy=0.0, r=0.0):
    return np.array([vx, vy, r, 0.0, 0.0, 0.0])


def _v_e(x, ext, azimuth, elevation):
    """Expected Doppler of one static point at this bearing."""
    b = bearing_vectors(np.array([azimuth]), np.array([elevation]))
    return float(expected_doppler(x, *body_projection(ext, b))[0])


def test_bearing_boresight():
    assert np.allclose(bearing_vectors(0.0, 0.0), [1.0, 0.0, 0.0])


def test_bearing_left_abeam():
    assert np.allclose(bearing_vectors(math.pi / 2, 0.0), [0.0, 1.0, 0.0],
                       atol=1e-15)


def test_bearing_unit_norm():
    rng = np.random.default_rng(2)
    b = bearing_vectors(rng.uniform(-1, 1, 200), rng.uniform(-0.3, 0.3, 200))
    assert b.shape == (200, 3)
    assert np.all(np.abs(np.linalg.norm(b, axis=1) - 1.0) < 1e-12)


def test_expected_doppler_forward():
    ext = CFG.radars[0]  # identity rotation at (2, 0, 0.2)
    v = _v_e(_x(vx=20.0), ext, 0.0, 0.0)
    assert v == pytest.approx(-20.0)


def test_expected_doppler_lever_arm():
    ext = type(CFG.radars[0])(np.eye(3), np.array([2.0, 0.0, 0.0]), 26.5)
    v = _v_e(_x(r=1.0), ext, math.pi / 2, 0.0)
    assert v == pytest.approx(-2.0)


def test_expected_doppler_rotated_radar():
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    ext = type(CFG.radars[0])(R, np.zeros(3), 26.5)
    v = _v_e(_x(vx=10.0), ext, 0.0, 0.0)
    assert v == pytest.approx(0.0, abs=1e-12)


def _yaw_matrices(yaw):
    """Rotations about z by each angle of yaw, shape yaw.shape + (3, 3)."""
    c, s = np.cos(yaw), np.sin(yaw)
    zero, one = np.zeros_like(yaw), np.ones_like(yaw)
    return np.stack([np.stack([c, -s, zero], -1), np.stack([s, c, zero], -1),
                     np.stack([zero, zero, one], -1)], -2)


def test_expected_doppler_matches_world_frame_radar_velocity():
    # first principles in the world frame, sharing no code with radar: a
    # radar at p moves at V + r z x R(psi) p, and a static target on
    # bearing b measures minus that velocity along R(psi) R_mount b
    rng = np.random.default_rng(21)
    yawed = type(CFG.radars[0])(_yaw_matrices(rng.uniform(-math.pi, math.pi)),
                                rng.uniform(-2.0, 2.0, 3), 26.5)
    n = 200
    for ext in [*CFG.radars, yawed]:
        vx, vy = rng.uniform(-70.0, 70.0, n), rng.uniform(-5.0, 5.0, n)
        r = rng.uniform(-1.5, 1.5, n)
        R = _yaw_matrices(rng.uniform(-math.pi, math.pi, n))
        az = rng.uniform(-math.pi, math.pi, n)
        el = rng.uniform(-0.5, 0.5, n)
        b = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                      np.sin(el)], axis=1)
        V = R @ np.stack([vx, vy, np.zeros(n)], axis=1)[..., None]
        p = R @ ext.translation
        v_radar = V[..., 0] + r[:, None] * np.stack(
            [-p[:, 1], p[:, 0], np.zeros(n)], axis=1)
        b_world = (R @ ext.rotation @ b[..., None])[..., 0]
        expected = -np.sum(b_world * v_radar, axis=1)
        X = np.column_stack([vx, vy, r, np.zeros((n, 3))])
        np.testing.assert_allclose(
            expected_doppler(X, *body_projection(ext, b)), expected,
            rtol=0.0, atol=1e-12)


def test_dealias_in_band():
    v_r, n = dealias([10.0], [10.0], 26.5)
    assert (v_r.tolist(), n.tolist()) == ([10.0], [0])


def test_dealias_one_wrap_up():
    v_r, n = dealias([-20.0], [31.0], 26.5)
    assert (v_r.tolist(), n.tolist()) == ([33.0], [1])


def test_dealias_one_wrap_down():
    v_r, n = dealias([23.0, 10.0], [-30.0, 10.0], 26.5)
    assert (v_r.tolist(), n.tolist()) == ([-30.0, 10.0], [-1, 0])


def test_dealias_rejects_out_of_band_measurement():
    # an out-of-band point is rejected with its own reason, ahead of the
    # SNR gate; the in-band points of the same scan are still accepted.
    # A finite Doppler far out of band, up to the largest float, is
    # rejected the same way, without an overflowing wrap count.
    huge = [1e300, -1.7976931348623157e308]
    v_r, _ = dealias([5.0, 30.0, 30.0, *huge], [5.0, 0.0, 0.0, 0.0, 0.0],
                     26.5)
    reason = gate_points([25.0, 25.0, 4.0, 25.0, 25.0],
                         [5.0, 0.0, 0.0, 0.0, 0.0], v_r, CFG)
    assert reason.tolist() == [None] + 4 * [REJECT_ALIAS]
    win = _window_at_speed(20.0)
    pts = [RadarPoint(10.0, 0.0, 0.0, -20.0, 25.0),
           RadarPoint(10.0, 0.1, 0.0, 30.0, 25.0),
           *(RadarPoint(10.0, 0.1, 0.0, v, 25.0) for v in huge)]
    rows = _bind(win, _scan(pts, win.t[-1] - 0.05, win.t[-1]))
    assert len(rows) == 1 and rows[0, 1] == pytest.approx(-20.0)
    # the estimator counts the point and carries on
    est = Estimator(CFG)
    est.process_event(ImuSample(0.0, 0.0, 0.0, 0.0))
    pts = [RadarPoint(10.0, 0.0, 0.0, 0.0, 25.0),
           RadarPoint(10.0, 0.1, 0.0, 30.0, 25.0)]
    est.process_event(_scan(pts, 0.0, 0.001))
    assert len(est.reports) == 1
    assert (est.counters["doppler_accepted"],
            est.counters["doppler_rejected"]) == (1, 1)


def test_rejected_points_are_counted_per_reason():
    # at rest every point predicts 0 m/s: one passes, one is out of band,
    # one below snr_min and one beyond dV_r_max of the prediction
    pts = [RadarPoint(10.0, 0.0, 0.0, 0.0, 25.0),
           RadarPoint(10.0, 0.0, 0.0, 30.0, 25.0),
           RadarPoint(10.0, 0.0, 0.0, 0.0, 2.0),
           RadarPoint(10.0, 0.0, 0.0, 10.0, 25.0)]
    rows, rejected = scan_to_factors(_scan(pts, 0.0, 0.001), _x(), CFG)
    assert len(rows) == 1
    assert rejected.tolist() == [REJECT_ALIAS, REJECT_LOW_SNR,
                                 REJECT_INNOVATION]
    est = Estimator(CFG)
    est.process_event(ImuSample(0.0, 0.0, 0.0, 0.0))
    est.process_event(_scan(pts, 0.0, 0.001))
    assert len(est.reports) == 1
    c = est.counters
    assert (c["doppler_accepted"], c["doppler_rejected"]) == (1, 3)
    assert (c["doppler_rejected_alias"], c["doppler_rejected_low_snr"],
            c["doppler_rejected_innovation"]) == (1, 1, 1)


def test_dealias_tie_breaks_to_even():
    # |v_e - v_d| exactly V_N: ratio is 0.5, nint gives 0 (half to even);
    # ratio 1.5 rounds to 2
    v_r, n = dealias([0.0, 0.0], [26.5, 79.5], 26.5)
    assert n.tolist() == [0, 2] and v_r[0] == 0.0


def test_dealias_recovers_exactly():
    rng = np.random.default_rng(9)
    V_N = 26.5
    v_true = rng.uniform(-4 * V_N, 4 * V_N, 10_000)
    v_e = v_true + rng.uniform(-0.95 * V_N, 0.95 * V_N, 10_000)
    v_rec, _ = dealias(wrap(v_true, V_N), v_e, V_N)
    assert np.all(np.abs(v_rec - v_true) < 1e-12)


def test_gate_accepts_clean_point():
    assert gate_points([25.0], [5.4], [5.0], CFG)[0] is None


def test_gate_low_snr():
    assert gate_points([4.0], [5.0], [5.0], CFG)[0] == REJECT_LOW_SNR


def test_gate_innovation():
    reason = gate_points([25.0, 4.0, 25.0], [0.0, 0.0, 5.0],
                         [5.0, 5.0, 5.0], CFG)
    assert reason.tolist() == [REJECT_INNOVATION, REJECT_LOW_SNR, None]


def test_gate_monotone_in_snr():
    rng = np.random.default_rng(3)
    import copy
    lowered = copy.deepcopy(CFG)
    lowered.thresholds.snr_min = 5.0
    snr = rng.uniform(0, 40, 200)
    v_e = 5.0 + rng.uniform(0, 5, 200)
    v_r = np.full(200, 5.0)
    kept = np.equal(gate_points(snr, v_e, v_r, CFG), None)
    kept_low = np.equal(gate_points(snr, v_e, v_r, lowered), None)
    assert kept.any() and np.all(kept_low[kept])


def _window_at_speed(vx, t_end=1.0):
    win = SlidingWindow(CFG)
    u = (0.0, 0.0, 0.0, 0.0)
    win.push_state(0.0, u)
    win.X[0, 0] = vx
    t = CFG.thresholds.dt
    while t <= t_end + 1e-9:
        win.push_state(t, (0.0, 0.0, 0.0, 0.0))
        t += CFG.thresholds.dt
    return win


def _scan(points, t_capture, t_receive, radar_id=0):
    return RadarScan(radar_id, t_capture, t_receive, tuple(points))


def _bind(win, scan):
    """Doppler rows of a scan at the window state at its capture time,
    inserted as the estimator does."""
    t = scan.t_capture
    i = win.push_state(t, (0.0, 0.0, 0.0, 0.0), grid=False)
    rows, _ = scan_to_factors(scan, win.X[i], CFG)
    return rows


def test_scan_inserts_state_back_in_time():
    # capture 90.3 ms back falls between grid states and forces insertion
    win = _window_at_speed(20.0)
    newest = win.t[-1]
    t_cap = newest - 0.0903
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(-20.0, 26.5), 25.0)]
    n_before = len(win.t)
    rows = _bind(win, _scan(pts, t_cap, newest))
    assert len(win.t) == n_before + 1
    times = win.t.tolist()
    assert any(abs(t - t_cap) < 1e-9 for t in times)
    assert times == sorted(times)
    assert len(rows) == 1
    assert rows[0, 0] == pytest.approx(t_cap)
    assert rows[0, 1] == pytest.approx(-20.0)


def test_scan_ninety_ms_back_binds_at_capture_time():
    # a capture exactly 90 ms back coincides with the state grid here, so
    # the factor binds to that state without inserting a duplicate
    win = _window_at_speed(20.0)
    newest = win.t[-1]
    t_cap = newest - 0.09
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(-20.0, 26.5), 25.0)]
    n_before = len(win.t)
    rows = _bind(win, _scan(pts, t_cap, newest))
    assert len(win.t) == n_before
    assert rows[0, 0] == pytest.approx(t_cap)


def test_scan_binds_to_existing_grid_state():
    win = _window_at_speed(20.0)
    t_cap = win.t[-3]
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(-20.0, 26.5), 25.0)]
    n_before = len(win.t)
    _bind(win, _scan(pts, t_cap, win.t[-1]))
    assert len(win.t) == n_before


def test_scan_fully_gated_yields_no_factors():
    win = _window_at_speed(20.0)
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(-20.0, 26.5), 2.0)]  # low SNR
    rows = _bind(win, _scan(pts, win.t[-1] - 0.05, win.t[-1]))
    assert len(rows) == 0


def test_stale_scan_rejected():
    # a capture before the window start has no state to bind to: the
    # window returns None and inserts nothing
    win = _window_at_speed(20.0)
    t0 = win.t.copy()
    assert win.push_state(win.t[0] - 0.2, (0.0, 0.0, 0.0, 0.0),
                          grid=False) is None
    assert np.array_equal(win.t, t0)
    # the estimator counts such a scan in stale_scans
    est = Estimator(CFG)
    est.process_event(ImuSample(0.0, 0.0, 0.0, 0.0))
    est.process_event(ImuSample(1.0, 0.0, 0.0, 0.0))
    t0, solves = est.window.t.copy(), len(est.reports)
    assert t0[0] > 0.5
    pts = [RadarPoint(10.0, 0.0, 0.0, 0.0, 25.0)]
    est.process_event(_scan(pts, 0.5, 1.0))
    assert len(est.reports) == solves
    assert est.counters["stale_scans"] == 1
    assert np.array_equal(est.window.t, t0)


def _residual(row, x, sigma=None):
    """Whitened residual of one Doppler row at state x."""
    w = 1.0 / (CFG.covariances.sigma_doppler if sigma is None else sigma)
    return float(doppler_residual(x, *row[1:]) * w)


def test_doppler_residual_consistency():
    win = _window_at_speed(20.0)
    pts = [RadarPoint(10.0, 0.1, 0.02, wrap(
        _v_e(_x(vx=20.0), CFG.radars[0], 0.1, 0.02), 26.5), 25.0)]
    f = _bind(win, _scan(pts, win.t[-1] - 0.05, win.t[-1]))[0]
    assert _residual(f, _x(vx=20.0)) == pytest.approx(0.0, abs=1e-9)


def test_doppler_residual_velocity_error():
    # boresight forward point: 1 m/s vx error over sigma 0.2 gives |5.0|
    ext = CFG.radars[0]
    v_true = _v_e(_x(vx=20.0), ext, 0.0, 0.0)
    win = _window_at_speed(20.0)
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(v_true, 26.5), 25.0)]
    f = _bind(win, _scan(pts, win.t[-1] - 0.05, win.t[-1]))[0]
    res = _residual(f, _x(vx=19.0), sigma=0.2)
    assert abs(res) == pytest.approx(5.0, abs=1e-9)


def test_doppler_residual_lateral_orthogonality():
    # point at pi/2 sees vy only; vx error does not move the residual
    ext = type(CFG.radars[0])(np.eye(3), np.zeros(3), 26.5)
    v_true = _v_e(_x(vx=20.0, vy=0.5), ext, math.pi / 2, 0.0)
    win = _window_at_speed(20.0)
    pts = [RadarPoint(10.0, math.pi / 2, 0.0, wrap(v_true, 26.5), 25.0)]
    f = _bind(win, _scan(pts, win.t[-1] - 0.05, win.t[-1]))[0]
    r1 = _residual(f, _x(vx=20.0, vy=0.5))
    r2 = _residual(f, _x(vx=15.0, vy=0.5))
    assert r1 == pytest.approx(r2, abs=1e-9)

