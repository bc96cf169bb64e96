import math

import numpy as np
import pytest

from radgrip import simgen
from radgrip.core import (ImuSample, InsufficientDataError, RadarPoint,
                          RadarScan, ReferenceVelocity, SteeringSample,
                          default_config, event_time)
from radgrip.mhe import (Estimator, SlidingWindow, WindowProblem,
                         replay_events)
from radgrip.zupt import (INITIAL_STANDSTILL, accel_magnitude_deviation,
                          estimate_attitude, update_standstill)

CFG = default_config()
G = CFG.g


def _feed(status, speed, accel, t0, t1, rate=200.0):
    t = t0
    while t <= t1 + 1e-9:
        status = update_standstill(status, speed, accel, t, CFG)
        t += 1.0 / rate
    return status


def test_standstill_after_sustained_quiet():
    status = _feed(INITIAL_STANDSTILL, 0.1, 0.05, 0.0, 1.2)
    assert status.stationary


def test_speed_violation_resets():
    status = _feed(INITIAL_STANDSTILL, 0.1, 0.05, 0.0, 2.0)
    assert status.stationary
    status = update_standstill(status, 0.6, 0.05, 2.005, CFG)
    assert not status.stationary
    assert status.since == 2.005


def test_duration_not_met():
    status = _feed(INITIAL_STANDSTILL, 0.1, 0.05, 0.0, 0.5)
    assert not status.stationary


def test_detector_deterministic():
    a = _feed(INITIAL_STANDSTILL, 0.2, 0.1, 0.0, 1.5)
    b = _feed(INITIAL_STANDSTILL, 0.2, 0.1, 0.0, 1.5)
    assert a == b


def test_missing_speed_resets():
    status = update_standstill(INITIAL_STANDSTILL, None, 0.0, 1.0, CFG)
    assert not status.stationary and status.since == 1.0


def _imu_window(accel, gyro=(0.0, 0.0, 0.0), duration=1.2, rate=200.0,
                noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    n = int(duration * rate) + 1
    for k in range(n):
        na = rng.normal(0, noise, 3) if noise else np.zeros(3)
        out.append(ImuSample(
            t=k / rate, ax=accel[0] + na[0], ay=accel[1] + na[1],
            r=gyro[2], az=accel[2] + na[2], gx=gyro[0], gy=gyro[1]))
    return out


def test_attitude_level_vehicle():
    g_body = estimate_attitude(_imu_window((0.0, 0.0, G), noise=0.01), CFG)
    assert g_body[0] == pytest.approx(0.0, abs=2e-3)
    assert g_body[1] == pytest.approx(0.0, abs=2e-3)
    assert g_body[2] == pytest.approx(-G, abs=2e-3)


def test_attitude_pitched_five_degrees():
    # physical accelerometer readings for a 5 deg nose-down vehicle at rest
    p = math.radians(5.0)
    accel = (-G * math.sin(p), 0.0, G * math.cos(p))
    g_body = estimate_attitude(_imu_window(accel), CFG)
    assert g_body[0] == pytest.approx(0.8549978, abs=2e-4)
    assert np.linalg.norm(g_body) == pytest.approx(G, rel=0.01)


def test_attitude_empty_window():
    with pytest.raises(InsufficientDataError):
        estimate_attitude([], CFG)


def test_attitude_short_window():
    with pytest.raises(InsufficientDataError):
        estimate_attitude(_imu_window((0, 0, G), duration=0.5), CFG)


def _pitched_rest_events(pitch, roll, br, duration=1.3):
    """IMU at rest tilted by pitch/roll with gyro bias br (accel biases
    zero) plus radar scans of static points seen from rest."""
    g_b = G * np.array([-math.sin(pitch),
                        math.cos(pitch) * math.sin(roll),
                        math.cos(pitch) * math.cos(roll)])
    events = []
    for k in range(int(duration * 200) + 1):
        t = k / 200.0
        events.append(ImuSample(t, g_b[0], g_b[1], br, az=g_b[2],
                                gx=0.0, gy=0.0))
    for k in range(int(duration / 0.02)):
        t = 0.003 + 0.02 * k
        pts = tuple(RadarPoint(10.0, az, 0.0, 0.0, 25.0)
                    for az in np.linspace(-0.5, 0.5, 8))
        events.append(RadarScan(0, t, t + 0.001, pts))
    events.sort(key=lambda e: e.t_receive if isinstance(e, RadarScan)
                else e.t)
    return events


def test_zupt_targets_on_tilted_rest_leak_gravity():
    # a static accelerometer cannot tell an accel bias from tilt: the
    # targets are the raw readings, so a 5 deg pitch and a -2 deg roll
    # leak gravity into the bx and by targets; the gyro bias is read
    # directly
    br = 0.004
    pitch, roll = math.radians(5.0), math.radians(-2.0)
    est = Estimator(default_config())
    for ev in _pitched_rest_events(pitch, roll, br):
        est.process_event(ev)
    targets = est.window.U[est.window.zv, :3]
    assert est.counters["zv_states"] > 0 and len(targets)
    leak = (-G * math.sin(pitch), G * math.cos(pitch) * math.sin(roll), br)
    assert np.allclose(targets, leak, rtol=0.0, atol=1e-12)
    assert np.allclose(leak, (-0.85500, -0.34106, 0.004), atol=5e-6)


@pytest.mark.parametrize("imu_time", [
    lambda k, t, rng: k * 0.0049,
    lambda k, t, rng: max(0.0, t + rng.uniform(-4e-4, 4e-4)),
], ids=["period_4.9ms", "jitter_0.4ms"])
def test_standstill_gets_zupt_with_imu_off_the_grid(imu_time):
    # IMU samples off the 5 ms grid, at a 4.9 ms period or with 0.4 ms
    # jitter, still let the detector find the rest and give it ZUPT states
    cfg = default_config()
    spec = simgen.make_scenario("standstill", cfg, seed=0)
    events, _ = simgen.run_scenario(spec.script, spec.p_truth, spec.noise,
                                    cfg)
    rng = np.random.default_rng(1)
    imu = [ev for ev in events if isinstance(ev, ImuSample)]
    events = [ev for ev in events if not isinstance(ev, ImuSample)] + [
        ev._replace(t=imu_time(k, ev.t, rng)) for k, ev in enumerate(imu)]
    rank = {SteeringSample: 0, ImuSample: 1, ReferenceVelocity: 2,
            RadarScan: 3}
    events.sort(key=lambda ev: (event_time(ev), rank[type(ev)]))
    # the standstill begins after T_stop = 1 s; half a second of ZUPT
    # states pins the biases
    est = replay_events([ev for ev in events if event_time(ev) <= 1.5], cfg)
    assert est.counters["zv_states"] > 0
    last = est.rows[-1]
    assert last.bx == pytest.approx(spec.noise.imu_accel_bias[0], abs=0.02)
    assert last.by == pytest.approx(spec.noise.imu_accel_bias[1], abs=0.02)


def test_standstill_gets_zupt_across_an_imu_gap():
    # the detector's run spans the 1.6 s gap, so the rest is detected at
    # the first sample after it, and its ZUPT states pin the accel biases
    cfg = default_config()
    spec = simgen.make_scenario("standstill", cfg, seed=0)
    events, _ = simgen.run_scenario(spec.script, spec.p_truth, spec.noise,
                                    cfg)
    est = replay_events([ev for ev in events if not (
        isinstance(ev, ImuSample) and 0.6 < ev.t < 2.2)], cfg)
    assert est.counters["zv_states"] > 0
    last = est.rows[-1]
    assert last.bx == pytest.approx(spec.noise.imu_accel_bias[0], abs=0.02)
    assert last.by == pytest.approx(spec.noise.imu_accel_bias[1], abs=0.02)


def _zupt_rows(x, u):
    """The ZUPT rows of WindowProblem.residuals, at unit weights, of a
    one-state window whose state x is a ZUPT state with inputs u =
    (ax, ay, r)."""
    cfg = default_config()
    cfg.covariances.Sigma_zv = np.ones(6)
    win = SlidingWindow(cfg)
    win.push_state(0.0, (*u, 0.0))
    win.X[0] = x
    win.zv[0] = True
    problem = WindowProblem(win, cfg.initial_params, cfg)
    return problem.residuals(problem.z_init())[problem.slices["zupt"]]


def test_zv_residual_exact_fit():
    res = _zupt_rows([0.0, 0.0, 0.0, 0.05, -0.02, 0.003],
                     (0.05, -0.02, 0.003))
    assert res.shape == (6,)
    assert np.allclose(res, 0.0)


def test_zv_residual_bias_component():
    res = _zupt_rows(np.zeros(6), (0.05, 0.0, 0.0))
    assert res[3] == pytest.approx(-0.05)


def test_zv_residual_velocity_component():
    res = _zupt_rows([0.2, 0.0, 0.0, 0.0, 0.0, 0.0], (0.0, 0.0, 0.0))
    assert res[0] == pytest.approx(0.2)


def test_accel_magnitude_deviation():
    assert accel_magnitude_deviation(0.0, 0.0, G, G) == 0.0
    assert accel_magnitude_deviation(0.0, 0.0, None, G) == 0.0
    assert accel_magnitude_deviation(3.0, 4.0, G, G) > 1.0
