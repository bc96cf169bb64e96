import copy
import gc
import gzip
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radgrip import mhe, tire
from radgrip.core import (ImuSample, RadarPoint, RadarScan,
                          ReferenceVelocity, SteeringSample, default_config,
                          event_time, parse_event)
from radgrip.mhe import (Estimator, SlidingWindow, SolveReport,
                         WindowProblem, output_rows, replay_events,
                         solve, solve_problem)
from radgrip.motion import predict_array
from radgrip.radar import (bearing_vectors, body_projection,
                           expected_doppler, scan_to_factors)
from radgrip.simgen import P_TRUTH_DEFAULT, wrap

CFG = default_config()
DT = CFG.thresholds.dt
LOG_3S = os.path.join(os.path.dirname(__file__), "data",
                      "dlc65_outliers_3s.jsonl.gz")


def _events_3s():
    """The events of the 3 s oracle log, in arrival order."""
    with gzip.open(LOG_3S, "rt", encoding="utf-8") as fh:
        return [parse_event(line) for line in fh.read().splitlines()]


def _v_e(vx, azimuth, elevation):
    """Expected Doppler on radar 0 of a static point, driving straight."""
    b = bearing_vectors(np.array([azimuth]), np.array([elevation]))
    x = np.array([vx, 0.0, 0.0, 0.0, 0.0, 0.0])
    return float(expected_doppler(x, *body_projection(CFG.radars[0], b))[0])


ZERO_U = (0.0, 0.0, 0.0, 0.0)     # U row: no acceleration, yaw or steer


def _attach(win, scan):
    """Bind a scan's Doppler rows to the window as the estimator does."""
    i = win.push_state(scan.t_capture, ZERO_U, grid=False)
    rows, _ = scan_to_factors(scan, win.X[i], CFG)
    win.dop = np.concatenate((win.dop, rows))


def _cruise_window(vx=15.0, n=15, with_scans=3):
    """Window at exact constant-velocity truth with exact Doppler factors."""
    win = SlidingWindow(CFG)
    win.push_state(0.0, ZERO_U)
    win.X[0, 0] = vx
    for k in range(1, n):
        win.push_state(k * DT, ZERO_U)
    rng = np.random.default_rng(0)
    for s in range(with_scans):
        t_cap = win.t[-1] - 0.0205 * (s + 1) - 0.0032
        pts = []
        for _ in range(8):
            az = float(rng.uniform(-0.5, 0.5))
            el = float(rng.uniform(-0.1, 0.1))
            v = _v_e(vx, az, el)
            pts.append(RadarPoint(10.0, az, el, wrap(v, 26.5), 25.0))
        _attach(win, RadarScan(0, t_cap, win.t[-1], tuple(pts)))
    return win


def test_seed_bootstrap():
    win = SlidingWindow(CFG)
    assert win.push_state(0.0, ZERO_U) == 0
    assert len(win.t) == 1
    assert win.grid[0] and not win.zv[0]
    assert np.allclose(win.X[0, :3], 0.0)
    assert np.allclose(win.X[0, 3:], CFG.initial_biases)


def test_push_state_span_tracks_horizon():
    win = SlidingWindow(CFG)
    win.push_state(0.0, ZERO_U)
    for k in range(1, 15):
        win.push_state(k * DT, ZERO_U)
    assert win.t[-1] - win.t[0] == pytest.approx(0.14)
    win.push_state(0.15, ZERO_U)
    assert win.t[-1] - win.t[0] == pytest.approx(0.15)


def test_push_state_order_guard():
    # a second push at an existing time returns that row, adds no state
    # and leaves its estimate as it was
    win = SlidingWindow(CFG)
    win.push_state(0.0, ZERO_U)
    win.push_state(DT, ZERO_U)
    X0 = win.X.copy()
    assert win.push_state(DT, ZERO_U) == 1
    assert win.push_state(DT + 0.5e-9, (1.0, 2.0, 3.0, 4.0)) == 1
    assert win.t.tolist() == [0.0, DT]
    assert np.array_equal(win.X, X0)
    assert np.array_equal(win.U, np.zeros((2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(-0.05, 0.2), st.integers(0, 40)),
    st.sampled_from([-1.5e-9, -0.9e-9, 0.0, 0.9e-9, 1.5e-9]), st.booleans()),
    max_size=25))
def test_push_state_keeps_one_state_per_time(pushes):
    # pushes in any order around a seeded window, each at a float time or
    # next to an existing state (integer k: the time of state k):
    # no process residual is ever formed over dt <= 0
    eps = mhe._T_EPS
    win = SlidingWindow(CFG)
    win.push_state(0.0, (0.5, -0.3, 0.1, 0.0))
    win.X[0, :3] = (10.0, 0.5, 0.1)
    for when, jitter, grid in pushes:
        t = (when if isinstance(when, float)
             else win.t[min(when, len(win.t) - 1)]) + jitter
        u = (t, -t, 0.2, 0.01)
        t0, X0, U0, g0 = (a.copy() for a in (win.t, win.X, win.U, win.grid))
        i = win.push_state(t, u, grid)
        near = np.flatnonzero(np.abs(t0 - t) <= eps)
        if t < t0[0] - eps:
            assert i is None
            assert np.array_equal(win.t, t0) and np.array_equal(win.X, X0)
        elif len(near):
            assert i == near[0]
            assert np.array_equal(win.t, t0) and np.array_equal(win.X, X0)
            assert np.array_equal(win.U, U0)
            assert win.grid[i] == (g0[i] or grid)
            assert np.array_equal(np.delete(win.grid, i), np.delete(g0, i))
        else:
            assert win.t[i] == t and win.grid[i] == grid and not win.zv[i]
            assert tuple(win.U[i]) == u
            for a, a0 in ((win.t, t0), (win.X, X0), (win.U, U0),
                          (win.grid, g0)):
                assert np.array_equal(np.delete(a, i, axis=0), a0)
            if i == len(t0):
                x = predict_array(X0[-1], *U0[-1, :3], t - t0[-1])
            else:
                w = (t - t0[i - 1]) / (t0[i] - t0[i - 1])
                x = (1.0 - w) * X0[i - 1] + w * X0[i]
            assert np.allclose(win.X[i], x, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(win.t) > eps)


def test_solve_noiseless_truth_initialized():
    win = _cruise_window()
    _, report = solve(win, P_TRUTH_DEFAULT, CFG)
    assert report.final_cost == pytest.approx(0.0, abs=1e-12)
    assert report.termination == "no_decrease"
    assert np.allclose(win.X[:, 0], 15.0, atol=1e-9)
    assert np.allclose(win.X[:, 1:], 0.0, atol=1e-9)


def test_solve_iteration_cap():
    cfg = copy.deepcopy(CFG)
    cfg.solver.max_iterations = 5
    win = _cruise_window()
    # perturb one state so the optimizer has real work
    win.X[5, 0] += 0.5
    win.X[5, 1] -= 0.2
    _, report = solve(win, P_TRUTH_DEFAULT, cfg)
    assert report.iterations == 5
    assert report.termination == "max_iterations"
    assert report.final_cost < 1e-12 * report.initial_cost


def test_solve_cost_never_increases():
    rng = np.random.default_rng(17)
    win = _cruise_window()
    for x in win.X:
        x += rng.normal(0, 0.05, 6)
    _, report = solve(win, P_TRUTH_DEFAULT, CFG)
    assert report.final_cost <= report.initial_cost
    assert report.final_cost < report.initial_cost  # it had work to do


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


@pytest.mark.parametrize("name, fake, termination", [
    ("cho_factor", _raise_linalg_error, "singular"),
    ("cho_solve", lambda c, b, **kw: np.full_like(b, np.nan), "no_decrease"),
], ids=["singular_normal_matrix", "non_finite_step"])
def test_solve_keeps_the_iterate_when_a_step_fails(monkeypatch, name, fake,
                                                   termination):
    monkeypatch.setattr(mhe, name, fake)
    win = _cruise_window()
    win.X[5, 0] += 0.5
    X0 = win.X.copy()
    _, report = solve(win, P_TRUTH_DEFAULT, CFG)
    assert report.termination == termination
    assert report.iterations == 1
    assert report.final_cost == report.initial_cost
    assert np.array_equal(win.X, X0)


def test_solve_clamps_params_into_box():
    win = _cruise_window()
    crazy = P_TRUTH_DEFAULT.copy()
    crazy[0] = 500.0   # B outside the box
    crazy[3] = -20.0   # E outside the box
    P_new, _ = solve(win, crazy, CFG)
    assert np.all(tire.axles(P_new) >= CFG.bounds.P_min - 1e-12)
    assert np.all(tire.axles(P_new) <= CFG.bounds.P_max + 1e-12)


def test_shift_span_arithmetic():
    win = SlidingWindow(CFG)
    win.push_state(0.0, ZERO_U)
    for k in range(1, 18):
        win.push_state(k * DT, ZERO_U)
    assert win.t[-1] - win.t[0] == pytest.approx(0.17)
    evicted_t, _, _ = win.shift()
    assert len(evicted_t) == 2
    assert win.t[-1] - win.t[0] == pytest.approx(0.15)


def test_shift_refreshes_priors_and_drops_factors():
    win = _cruise_window(n=18, with_scans=0)
    # factor bound near the start gets evicted with its state
    pts = [RadarPoint(10.0, 0.0, 0.0, wrap(_v_e(15.0, 0, 0), 26.5), 25.0)]
    _attach(win, RadarScan(0, win.t[0] + 0.0052, win.t[-1],
                           tuple(pts)))
    assert len(win.dop) == 1
    win.shift()
    assert len(win.dop) == 0
    # the next problem's priors are centred on its entry iterate
    problem = WindowProblem(win, P_TRUTH_DEFAULT * 1.01, CFG)
    cost = problem.cost_breakdown(problem.residuals(problem.z_init()))
    assert cost["prior_state"] == 0.0
    assert cost["prior_params"] == 0.0


@pytest.mark.parametrize("vx, scans, zv_state", [
    (22.0, 2, 3),
    (3.0, 0, None),
], ids=["every_class", "no_zupt_force_or_doppler_rows"])
def test_window_problem_jacobian_matches_fd(vx, scans, zv_state):
    rng = np.random.default_rng(23)
    win = _cruise_window(vx=vx, n=12, with_scans=scans)
    for x, u in zip(win.X, win.U):
        x += rng.normal(0, 0.02, 6)
        u[:] = (rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 0.1),
                rng.normal(0, 0.05))
    if zv_state is not None:
        win.zv[zv_state] = True
    problem = WindowProblem(win, P_TRUTH_DEFAULT, CFG)
    empty = [f.name for f in problem.table if not f.n]
    assert empty == ([] if zv_state is not None
                     else ["zupt", "lateral_force", "doppler"])
    z = problem.z_init()
    J = problem.jacobian(z).copy()
    for j in range(problem.nvar):
        h = 1e-6 * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd = (problem.residuals(zp).copy()
              - problem.residuals(zm).copy()) / (2 * h)
        scale = max(1.0, np.abs(J[:, j]).max())
        assert np.abs(J[:, j] - fd).max() / scale < 1e-6


@pytest.mark.parametrize("name, field, scale", [
    ("prior_state", "Sigma_x0", 4.0),
    ("prior_params", "Sigma_P", 4.0),
    ("process", "Sigma_w", 4.0),
    ("zupt", "Sigma_zv", 4.0),
    ("lateral_force", "Sigma_Fy", 4.0),
    ("doppler", "sigma_doppler", 2.0),
])
def test_window_problem_whitens_each_class_by_its_own_weights(name, field,
                                                              scale):
    # four times a class's variance (twice sigma_doppler) halves its rows
    # of r and J exactly and leaves every other row bitwise unchanged
    win = _cruise_window(vx=22.0)
    win.zv[3] = True
    cfg = copy.deepcopy(CFG)
    setattr(cfg.covariances, field, getattr(cfg.covariances, field) * scale)
    base = WindowProblem(win, P_TRUTH_DEFAULT, CFG)
    scaled = WindowProblem(win, P_TRUTH_DEFAULT, cfg)
    assert all(f.n for f in base.table)
    z = base.z_init() + np.random.default_rng(5).normal(0, 0.01, base.nvar)
    own = np.zeros(base.nrows, dtype=bool)
    own[base.slices[name]] = True
    for a, b in ((base.residuals(z), scaled.residuals(z)),
                 (base.jacobian(z), scaled.jacobian(z))):
        assert np.any(a[own]) and np.array_equal(b[own], a[own] / 2)
        assert np.array_equal(b[~own], a[~own])


def test_solved_window_problem_is_freed_without_gc():
    # replay_events pauses cyclic gc, so a reference cycle through the
    # factor table would keep every solved problem alive
    problem = WindowProblem(_cruise_window(), P_TRUTH_DEFAULT, CFG)
    solve_problem(problem)
    freed = weakref.ref(problem)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        del problem
        assert freed() is None
    finally:
        if gc_was_enabled:
            gc.enable()


def _mini_events(duration=1.0, vx=0.0):
    events = []
    t = 0.0
    while t <= duration + 1e-9:
        events.append(ImuSample(round(t, 6), 0.0, 0.0, 0.0, az=9.81,
                                gx=0.0, gy=0.0))
        t += 0.005
    t_cap = 0.203
    while t_cap < duration - 0.01:
        pts = []
        rng = np.random.default_rng(int(t_cap * 1000))
        for _ in range(10):
            az = float(rng.uniform(-0.5, 0.5))
            v = _v_e(vx, az, 0.0)
            pts.append(RadarPoint(10.0, az, 0.0, wrap(v, 26.5), 25.0))
        events.append(RadarScan(0, round(t_cap, 6), round(t_cap, 6), pts))
        t_cap += 0.02
    events.sort(key=lambda e: e.t_receive if isinstance(e, RadarScan)
                else e.t)
    return events


def test_attach_radar_triggers_solve():
    est = Estimator(CFG)
    for ev in _mini_events(0.3):
        est.process_event(ev)
    assert est.counters["solves"] > 0
    assert est.counters["doppler_accepted"] > 0


def test_attach_imu_does_not_trigger():
    est = Estimator(CFG)
    trig = est.attach(ImuSample(0.0, 0.0, 0.0, 0.0))
    assert trig is False
    trig = est.attach(SteeringSample(0.001, 0.01))
    assert trig is False


def test_attach_fully_gated_scan_does_not_trigger():
    est = Estimator(CFG)
    est.attach(ImuSample(0.0, 0.0, 0.0, 0.0))
    pts = [RadarPoint(10.0, 0.0, 0.0, 1.0, 2.0)]  # below snr_min
    trig = est.attach(RadarScan(0, 0.0, 0.001, tuple(pts)))
    assert trig is False


def test_attach_ignores_the_reference_channel():
    # the optical reference is for scoring only: fed before any other
    # event, before the window start, twice at one time or ahead of every
    # fused stream, it triggers no solve and changes no state or counter
    est = Estimator(CFG)
    assert est.attach(ReferenceVelocity(0.0, 10.0, 0.0)) is False
    assert len(est.window.t) == 0 and not any(est.counters.values())
    for ev in _mini_events(0.5):
        est.process_event(ev)
    w = est.window
    t0, tn = w.t[0], w.t[-1]
    for t in (t0 - 0.3, t0, tn, tn, tn + 1.0):
        t_before, X_before = w.t.copy(), w.X.copy()
        counters, solves = dict(est.counters), len(est.reports)
        ref = ReferenceVelocity(t, 10.0, 0.0)
        assert est.attach(ref) is False
        est.process_event(ref)
        assert est.window is w and len(est.reports) == solves
        assert np.array_equal(w.t, t_before) and np.array_equal(w.X, X_before)
        assert est.counters == counters


def test_watchdog_solves_on_radar_silence():
    est = Estimator(CFG)
    t = 0.0
    while t <= 0.5 + 1e-9:
        est.process_event(ImuSample(round(t, 6), 0.0, 0.0, 0.0))
        t += 0.005
    assert est.counters["watchdog_solves"] >= 3
    assert est.window.t[-1] - est.window.t[0] <= CFG.thresholds.dTw + 1e-9


def test_replay_deterministic():
    events = _mini_events(0.8)
    rows1 = replay_events(events, CFG).rows
    rows2 = replay_events(events, CFG).rows
    assert len(rows1) == len(rows2) > 0
    for a, b in zip(rows1, rows2):
        assert a == b


def test_prior_continuity_on_noiseless_data():
    est = replay_events(_mini_events(1.0, vx=0.0), CFG)
    # anchor state estimates move by far less than 3 sigma of the prior
    sig = np.sqrt(CFG.covariances.Sigma_x0)
    for rep in est.reports:
        assert rep.final_cost <= rep.initial_cost + 1e-12
    rows = est.rows
    for row in rows:
        assert abs(row.vx) < 3 * sig[0]


def test_estimate_outputs_straight_running():
    win = _cruise_window(vx=20.0, with_scans=0)
    row = output_rows(win.t[-1:], win.X[-1:], win.U[-1:], P_TRUTH_DEFAULT,
                      CFG)[0]
    assert row.beta == pytest.approx(0.0, abs=1e-12)
    assert row.Fyf == pytest.approx(0.0, abs=1e-9)
    assert row.alpha_f == pytest.approx(0.0, abs=1e-12)
    assert row.BCD_f == pytest.approx(
        P_TRUTH_DEFAULT[0] * P_TRUTH_DEFAULT[1] * P_TRUTH_DEFAULT[2])


def test_estimate_outputs_below_gate_emits_nulls():
    win = _cruise_window(vx=3.0, with_scans=0)
    row = output_rows(win.t[-1:], win.X[-1:], win.U[-1:], P_TRUTH_DEFAULT,
                      CFG)[0]
    assert row.alpha_f is None and row.Fyf is None and row.beta is None
    assert row.BCD_f > 0


def test_solve_report_breakdown_classes():
    win = _cruise_window()
    _, report = solve(win, P_TRUTH_DEFAULT, CFG)
    assert set(report.breakdown) == {"prior_state", "prior_params",
                                     "process", "zupt", "lateral_force",
                                     "doppler"}


def test_nonphysical_load_row_emits_nulls_without_aborting():
    # 100 m/s^2 for 0.1 s takes the IMU-only estimate to 10 m/s with a
    # negative front load; rows past the speed gate there leave their slip
    # and force fields empty, and the replay carries on past them
    events = [ImuSample(k * 0.005, 100.0 if 40 <= k < 60 else 0.0, 0.0, 0.0)
              for k in range(121)]
    rows = replay_events(events, CFG).rows
    assert rows[-1].t == pytest.approx(0.6)
    spike = [row for row in rows if 0.26 <= row.t < 0.295]
    after = [row for row in rows if row.t >= 0.3]
    assert spike and after
    for row in spike:
        assert row.vx > CFG.thresholds.V_Fy_min
        assert row.alpha_f is row.Fyf is row.Fyr is row.beta is None
    for row in after:
        assert None not in (row.alpha_f, row.Fyf, row.Fyr, row.beta)


@pytest.mark.parametrize("resumes_first", ["steering", "imu"])
def test_outage_catch_up_states_hold_the_last_input(resumes_first):
    # every event in (1.0, 2.5) s is lost; the states the grid catches up
    # with, and the scan states inserted among them, carry the last IMU
    # sample before the outage whichever sensor resumes first (at 2.5 s
    # the steering sample arrives ahead of the IMU one)
    events = [ev for ev in _events_3s() if not 1.0 < event_time(ev) < 2.5]
    if resumes_first == "imu":
        events = [ev for ev in events
                  if not (isinstance(ev, SteeringSample) and ev.t == 2.5)]
    last = [ev for ev in events
            if isinstance(ev, ImuSample) and ev.t <= 1.0][-1]
    est = Estimator(CFG)
    for ev in events:
        if event_time(ev) > 2.55:
            break
        est.process_event(ev)
    w = est.window
    caught_up = w.t < 2.5 - 1e-9
    assert np.count_nonzero(~w.grid[caught_up]) > 0
    assert np.all(w.U[caught_up, :3] == (last.ax, last.ay, last.r))


# a 2 s prefix: the standstill preamble, the launch and about 100 solves
EVENTS_2S = [ev for ev in _events_3s() if event_time(ev) <= 2.0]


def _restamp(ev, d):
    """ev stamped d seconds earlier, all its times moved."""
    if isinstance(ev, RadarScan):
        return ev._replace(t_capture=ev.t_capture - d,
                           t_receive=ev.t_receive - d)
    return ev._replace(t=ev.t - d)


def _mutate(events, kind, where, amount):
    i = int(where * len(events))
    if kind == "duplicate":
        events.insert(i, events[i])
    elif kind == "delete":
        del events[i]
    elif kind == "move":
        events.insert(i + round(20 * amount), events.pop(i))
    elif kind == "restamp":
        events[i] = _restamp(events[i], 0.5 * amount)
    else:
        scans = [k for k, ev in enumerate(events)
                 if isinstance(ev, RadarScan)]
        k = scans[int(where * len(scans))]
        events[k] = events[k]._replace(radar_id=7)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["duplicate", "delete", "move", "restamp",
                     "unknown_radar"]),
    st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0)),
    max_size=3))
def test_mutated_event_stream_is_contained(mutations):
    # up to 3 duplicated, deleted, delayed, early-stamped or unknown-radar
    # events: the replay finishes with finite, strictly ordered rows, and
    # every fused event is admitted or dropped with a reason, exactly once,
    # and no reference event is counted
    events = list(EVENTS_2S)
    for mutation in mutations:
        _mutate(events, *mutation)
    est = replay_events(events, CFG)
    t = np.array([row.t for row in est.rows])
    assert np.all(np.diff(t) > 0)
    for name in ("t", "vx", "vy", "r", "bx", "by", "br", "BCD_f", "BCD_r"):
        assert np.all(np.isfinite([getattr(row, name) for row in est.rows]))
    c = est.counters
    admitted = c["imu"] + c["steering"] + c["scans"]
    dropped = (c["unknown_radar_scans"] + c["stale_events"] + c["late_imu"]
               + c["late_steering"] + c["late_scans"])
    reference = sum(isinstance(ev, ReferenceVelocity) for ev in events)
    assert admitted + dropped + reference == len(events)
    assert not any("ref_vel" in name for name in c)
