"""Sliding-window problem assembly and the bounded nonlinear least-squares
solver that jointly refines vehicle states and tire parameters.

The window is held as arrays, one row per state, oldest first: times t,
estimates X, inputs U, a grid flag and ZUPT targets zv (NaN where a state
has none), plus one row per accepted Doppler observation in dop.  States
enter every dt (10 ms default); a radar scan binds its Doppler rows to the
state at its capture time, inserting one back in time when the capture
instant falls between grid states.  The full problem is solved when a scan
contributes at least one gated-in row, after which the window sheds its
oldest rows and priors are refreshed from the newest estimates.

The solver takes at most solver.max_iterations (default 1) Gauss-Newton
steps on the dense window problem, so the estimate never depends on the
clock.  Each step builds the dense Jacobian (a block-tridiagonal state
chain plus one tire-parameter column), J^T J and its Cholesky factor.
Tire parameters are clamped into their box, and a step is kept only if it
lowers the cost.  Doppler rows carry a Cauchy robust loss, everything else
is quadratic.
"""

from __future__ import annotations

import gc
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from radgrip import motion, tire, zupt
from radgrip import radar as radar_mod
from radgrip.core import (EstimatorError, ImuSample, InputSample,
                          NumericError, RadarScan, ReferenceVelocity,
                          StaleEventError, StaleScanError, SteeringSample,
                          VehicleConfig, WindowOrderError, event_time)
from radgrip.motion import predict_array

_T_EPS = 1e-9
_NO_ZV = (np.nan, np.nan, np.nan)


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------

class SlidingWindow:
    """Time-ordered states with attached measurements and priors.

    State k is row k of
      t (K,)     time,
      X (K, 6)   current estimate [vx, vy, r, bx, by, br],
      U (K, 4)   inputs [ax, ay, r, delta] governing [t_k, t_k+1) and the
                 models at t_k,
      grid (K,)  True for 10 ms grid states (output rows), False for states
                 inserted at a scan's capture time,
      zv (K, 3)  ZUPT targets (ax_tilde, ay_tilde, r_meas), NaN where none.
    Each accepted Doppler observation is one row [t_state, v_r, cx, cy,
    lever] of dop (M, 5), bound to the state at t_state; its expected value
    is -(cx*vx + cy*vy + lever*r) and its deviation the configured
    sigma_doppler.  Rows are added by concatenation, so every array is
    replaced, never resized, when the window grows.
    """

    def __init__(self, cfg: VehicleConfig):
        self.cfg = cfg
        self.t = np.empty(0)
        self.X = np.empty((0, 6))
        self.U = np.empty((0, 4))
        self.grid = np.empty(0, dtype=bool)
        self.zv = np.empty((0, 3))
        self.dop = np.empty((0, 5))
        self.prior_x: np.ndarray | None = None
        self.prior_P: np.ndarray = np.clip(
            cfg.initial_params, cfg.bounds.full_min(), cfg.bounds.full_max())

    def oldest_t(self) -> float:
        return self.t[0]

    def newest_t(self) -> float:
        return self.t[-1]

    def span(self) -> float:
        return self.t[-1] - self.t[0] if len(self.t) else 0.0

    def _states(self):
        return self.t, self.X, self.U, self.grid, self.zv

    def _keep(self, rows: slice) -> None:
        self.t, self.X, self.U, self.grid, self.zv = (
            a[rows] for a in self._states())

    def _insert(self, i: int, t: float, x: np.ndarray, u: InputSample,
                grid: bool) -> None:
        """Insert one state before row i (i = K appends)."""
        row = (t, x, (u.ax_meas, u.ay_meas, u.r_meas, u.delta), grid, _NO_ZV)
        self.t, self.X, self.U, self.grid, self.zv = (
            np.concatenate((a[:i], [v], a[i:]))
            for a, v in zip(self._states(), row))

    def seed(self, t: float, u: InputSample) -> None:
        """Restart the window with one grid state at the initial biases."""
        x0 = np.zeros(6)
        x0[3:6] = self.cfg.initial_biases
        self._keep(slice(0))
        self._insert(0, t, x0, u, True)
        self.prior_x = x0.copy()

    def _predict(self, t: float) -> np.ndarray:
        """The newest state propagated to t under its own input."""
        u = self.U[-1]
        return predict_array(self.X[-1], u[0], u[1], u[2], t - self.t[-1])

    def push_state(self, t: float, u: InputSample) -> None:
        """Append a grid state predicted from the newest one."""
        if not len(self.t):
            self.seed(t, u)
            return
        if t - self.t[-1] <= _T_EPS:
            raise WindowOrderError(
                f"push at t={t} does not advance newest={self.t[-1]}")
        self._insert(len(self.t), t, self._predict(t), u, True)

    def ensure_state_at(self, t: float, u: InputSample) -> np.ndarray:
        """Current estimate of the state at time t, inserting one with input
        u if needed.

        An inserted state is initialized by linear interpolation of its
        neighbours (or prediction when beyond the newest state); process
        residuals re-link across the split automatically.  Raises
        StaleScanError when t predates the window.
        """
        if t < self.t[0] - _T_EPS:
            raise StaleScanError(
                f"state request at {t:.4f} predates window start "
                f"{self.t[0]:.4f}")
        i = int(np.searchsorted(self.t, t - _T_EPS))
        if i < len(self.t) and abs(self.t[i] - t) <= _T_EPS:
            return self.X[i]
        if i == len(self.t):
            x = self._predict(t)
        else:
            w = (t - self.t[i - 1]) / (self.t[i] - self.t[i - 1])
            x = (1.0 - w) * self.X[i - 1] + w * self.X[i]
        self._insert(i, t, x, u, False)
        return x

    def shift(self, P_new: np.ndarray):
        """Evict states until the span fits the horizon, refresh priors.

        Returns (t, X, U) of the evicted grid states, oldest first.
        """
        # t is sorted, so the states beyond the horizon form a prefix
        n = int(np.count_nonzero(
            self.t[-1] - self.t > self.cfg.thresholds.dTw + _T_EPS))
        g = self.grid[:n]
        evicted = self.t[:n][g], self.X[:n][g], self.U[:n][g]
        if n:
            self._keep(slice(n, None))
            self.dop = self.dop[self.dop[:, 0] >= self.t[0] - _T_EPS]
        self.prior_x = self.X[0].copy()
        self.prior_P = np.asarray(P_new, dtype=float).copy()
        return evicted


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------

_CLASSES = ("prior_state", "prior_params", "process", "zupt",
            "lateral_force", "doppler")


def _block_index(row0, col0, nrows: int, ncols: int):
    """Index arrays addressing one dense (nrows, ncols) block of J per
    entry of row0/col0, each block starting at (row0[i], col0[i])."""
    return (np.asarray(row0)[:, None, None] + np.arange(nrows)[:, None],
            np.asarray(col0)[:, None, None] + np.arange(ncols))


def cauchy_loss(rd: np.ndarray, c: float) -> float:
    """Summed Cauchy loss rho(s) = c^2 log(1 + s / c^2), s = rd^2."""
    c2 = c * c
    return float(c2 * np.sum(np.log1p(rd * rd / c2)))


def cauchy_weights(rd: np.ndarray, c: float) -> np.ndarray:
    """IRLS row scalings sqrt(rho'(s)) of the Cauchy loss."""
    return 1.0 / np.sqrt(1.0 + rd * rd / (c * c))


class WindowProblem:
    """Residuals and analytic Jacobian of one window solve.

    Variables are z = [x_0 ... x_{K-1}, P] with x_k the 6 state components
    and P the 12 tire parameters (front then rear axle).  Each factor class
    is defined, with its partials, in its domain module; this class fixes
    the rows and weights per solve and scatters those values into r and J.
    """

    def __init__(self, window: SlidingWindow, P_init: np.ndarray,
                 cfg: VehicleConfig):
        th, cov = cfg.thresholds, cfg.covariances
        self.cfg = cfg
        K = self.K = len(window.t)
        self.t = window.t
        self.X_init = window.X
        self.P_lo = cfg.bounds.full_min()
        self.P_hi = cfg.bounds.full_max()
        self.P_init = np.clip(np.asarray(P_init, dtype=float),
                              self.P_lo, self.P_hi)
        self.dt = np.diff(self.t)
        self.u_ax, self.u_ay, self.u_r, self.u_delta = window.U.T

        self.prior_x = window.prior_x.copy()
        self.prior_P = np.clip(window.prior_P, self.P_lo, self.P_hi)
        self.w_x0 = 1.0 / np.sqrt(cov.Sigma_x0)
        self.w_P = 1.0 / np.sqrt(cov.Sigma_P)
        self.w_proc = 1.0 / np.sqrt(
            cov.Sigma_w[None, :] * (self.dt[:, None] / th.dt))
        self.w_zv = 1.0 / np.sqrt(cov.Sigma_zv)
        self.w_fy = 1.0 / np.sqrt(cov.Sigma_Fy)

        self.zv_idx = np.flatnonzero(~np.isnan(window.zv[:, 0]))
        self.zv = window.zv[self.zv_idx]

        # lateral-force rows: gate on the entry estimates, fixed per solve
        self.fy_idx = np.flatnonzero(tire.force_gate(
            self.X_init[:, 0], self.X_init[:, 1], self.u_ax, self.u_delta,
            cfg))
        self.fy_ax = self.u_ax[self.fy_idx]
        self.fy_delta = self.u_delta[self.fy_idx]
        self.fy_meas = np.stack(tire.measured_lateral_forces(
            self.u_ay[self.fy_idx], self.fy_delta, cfg), axis=1)

        dop = window.dop
        self.dop_idx = np.searchsorted(self.t, dop[:, 0] - _T_EPS)
        self.dop_vr, self.dop_cx, self.dop_cy, self.dop_lever = dop[:, 1:].T
        self.dop_w = 1.0 / cov.sigma_doppler

        self.cauchy = cfg.solver.cauchy_scale
        n_zv, n_fy, n_dop = len(self.zv_idx), len(self.fy_idx), len(dop)
        sizes = {
            "prior_state": 6,
            "prior_params": 12,
            "process": 6 * (K - 1),
            "zupt": 6 * n_zv,
            "lateral_force": 2 * n_fy,
            "doppler": n_dop,
        }
        self.slices = {}
        off = 0
        for name in _CLASSES:
            self.slices[name] = slice(off, off + sizes[name])
            off += sizes[name]
        self.nrows = off
        self.nvar = 6 * K + 12
        # reused buffers; every written Jacobian slot is overwritten per call
        self._r_buf = np.zeros(self.nrows)
        self._J_buf = np.zeros((self.nrows, self.nvar))
        row = {name: self.slices[name].start for name in _CLASSES}
        ks = np.arange(K - 1)
        self._proc_ix = _block_index(row["process"] + 6 * ks, 6 * ks, 6, 12)
        self._zv_ix = _block_index(row["zupt"] + 6 * np.arange(n_zv),
                                   6 * self.zv_idx, 6, 6)
        fy_row = row["lateral_force"] + 2 * np.arange(n_fy)
        self._fy_ix = _block_index(fy_row, 6 * self.fy_idx, 2, 3)
        self._fy_p_ix = _block_index(fy_row, np.full(n_fy, 6 * K), 2, 12)
        self._dop_ix = _block_index(row["doppler"] + np.arange(n_dop),
                                    6 * self.dop_idx, 1, 3)

    def z_init(self) -> np.ndarray:
        return np.concatenate([self.X_init.ravel(), self.P_init])

    def clamp(self, z: np.ndarray) -> np.ndarray:
        z[6 * self.K:] = np.clip(z[6 * self.K:], self.P_lo, self.P_hi)
        return z

    def _split(self, z: np.ndarray):
        return z[:6 * self.K].reshape(self.K, 6), z[6 * self.K:]

    def residuals(self, z: np.ndarray) -> np.ndarray:
        X, P = self._split(z)
        r = self._r_buf
        sl = self.slices
        r[sl["prior_state"]] = self.w_x0 * (X[0] - self.prior_x)
        r[sl["prior_params"]] = self.w_P * (P - self.prior_P)
        r[sl["process"]] = motion.process_residual(
            X, self.u_ax, self.u_ay, self.u_r, self.dt, self.w_proc).ravel()
        if len(self.zv_idx):
            r[sl["zupt"]] = zupt.zv_residual(
                X[self.zv_idx], self.zv, self.w_zv).ravel()
        if len(self.fy_idx):
            r[sl["lateral_force"]] = tire.lateral_force_residual(
                X[self.fy_idx], self.fy_ax, self.fy_delta, self.fy_meas, P,
                self.w_fy, self.cfg).ravel()
        r[sl["doppler"]] = radar_mod.doppler_residual(
            X[self.dop_idx], self.dop_vr, self.dop_cx, self.dop_cy,
            self.dop_lever, self.dop_w)
        return r

    def check_finite(self, r: np.ndarray) -> None:
        if np.all(np.isfinite(r)):
            return
        for name in _CLASSES:
            if not np.all(np.isfinite(r[self.slices[name]])):
                raise NumericError(f"non-finite residuals in {name}")

    def cost(self, r: np.ndarray) -> float:
        dop = self.slices["doppler"]
        quad = float(r[:dop.start] @ r[:dop.start])
        return quad + cauchy_loss(r[dop], self.cauchy)

    def cost_breakdown(self, r: np.ndarray) -> dict:
        out = {}
        for name in _CLASSES:
            rs = r[self.slices[name]]
            out[name] = (cauchy_loss(rs, self.cauchy) if name == "doppler"
                         else float(rs @ rs))
        return out

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        X, P = self._split(z)
        J = self._J_buf
        sl = self.slices
        J[sl["prior_state"], :6] = np.diag(self.w_x0)
        J[sl["prior_params"], 6 * self.K:] = np.diag(self.w_P)
        J[self._proc_ix] = motion.process_jacobian(X, self.dt, self.w_proc)
        if len(self.zv_idx):
            J[self._zv_ix] = zupt.zv_jacobian(len(self.zv_idx), self.w_zv)
        if len(self.fy_idx):
            J[self._fy_ix], J[self._fy_p_ix] = tire.lateral_force_jacobian(
                X[self.fy_idx], self.fy_ax, self.fy_delta, P, self.w_fy,
                self.cfg)
        J[self._dop_ix] = radar_mod.doppler_jacobian(
            self.dop_cx, self.dop_cy, self.dop_lever, self.dop_w)[:, None, :]
        return J


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    wall_time: float
    termination: str
    breakdown: dict
    t: float = 0.0
    trigger: str = "radar"
    n_states: int = 0
    n_doppler: int = 0


def solve_problem(problem: WindowProblem) -> tuple[np.ndarray, SolveReport]:
    """At most cfg.solver.max_iterations Gauss-Newton steps, each solving
    J^T J delta = -J^T r with the Doppler rows reweighted by their Cauchy
    weights and the tire parameters clamped into their box.

    A step is kept only if it lowers the cost.  The first that does not
    (non-finite residuals count as not lowering it) ends the solve on the
    current iterate with termination "no_decrease"; a singular normal
    matrix ends it with "singular".  The state and parameter priors make
    J^T J positive definite, so no damping is applied.  One step is the
    iterated-EKF update.  Returns (z, report).
    """
    t_start = time.perf_counter()
    z = problem.clamp(problem.z_init())
    r = problem.residuals(z).copy()
    problem.check_finite(r)
    cost = initial_cost = problem.cost(r)
    dop = problem.slices["doppler"]
    term = "max_iterations"
    for iters in range(1, problem.cfg.solver.max_iterations + 1):
        J = problem.jacobian(z)
        rw = r.copy()
        wd = cauchy_weights(r[dop], problem.cauchy)
        J[dop] *= wd[:, None]
        rw[dop] *= wd
        try:
            delta = cho_solve(
                cho_factor(J.T @ J, lower=True, check_finite=False),
                -(J.T @ rw), check_finite=False)
        except np.linalg.LinAlgError:
            term = "singular"
            break
        z_new = problem.clamp(z + delta)
        r_new = problem.residuals(z_new)
        cost_new = problem.cost(r_new) if np.all(
            np.isfinite(r_new)) else np.inf
        if not cost_new < cost:
            term = "no_decrease"
            break
        z, r, cost = z_new, r_new.copy(), cost_new

    report = SolveReport(
        iterations=iters,
        initial_cost=initial_cost,
        final_cost=cost,
        wall_time=time.perf_counter() - t_start,
        termination=term,
        breakdown=problem.cost_breakdown(r),
        n_states=problem.K,
        n_doppler=len(problem.dop_idx),
    )
    return z, report


def solve(window: SlidingWindow, P_current: np.ndarray,
          cfg: VehicleConfig) -> tuple[np.ndarray, SolveReport]:
    """Solve the window in place with solve_problem: window.X becomes the
    refined states.  Returns (P, report) with P the refined tire
    parameters."""
    problem = WindowProblem(window, P_current, cfg)
    z, report = solve_problem(problem)
    K = problem.K
    window.X = z[:6 * K].reshape(K, 6).copy()
    return z[6 * K:].copy(), report


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

@dataclass
class OutputRow:
    t: float
    vx: float
    vy: float
    r: float
    bx: float
    by: float
    br: float
    alpha_f: float | None
    alpha_r: float | None
    Fyf: float | None
    Fyr: float | None
    BCD_f: float
    BCD_r: float
    beta: float | None


def estimate_outputs(window: SlidingWindow, P: np.ndarray,
                     cfg: VehicleConfig, index: int = -1) -> OutputRow:
    """Output row for one window state (newest by default).  Slip, force
    and side-slip fields are None outside the lateral-force gate and at a
    nonphysical (non-positive) vertical load."""
    return _output_row(window.t[index], window.X[index], window.U[index], P,
                       cfg)


def _output_row(t: float, x: np.ndarray, u: np.ndarray, P: np.ndarray,
                cfg: VehicleConfig) -> OutputRow:
    """Output row of state x at time t with inputs u = [ax, ay, r, delta]."""
    ax_meas, delta = u[0], u[3]
    alpha_f = alpha_r = fyf = fyr = beta = None
    if tire.force_gate(x[0], x[1], ax_meas, delta, cfg):
        alpha_f, alpha_r = (float(a) for a in tire.slip_angles(
            x[0], x[1], x[2], delta, cfg))
        fyf, fyr = (float(f) for f in tire.model_lateral_forces(
            x, ax_meas, delta, P, cfg))
        beta = math.atan(x[1] / x[0])
    return OutputRow(float(t), *(float(v) for v in x),
                     alpha_f, alpha_r, fyf, fyr,
                     tire.cornering_stiffness(P[:6]),
                     tire.cornering_stiffness(P[6:]), beta)


# ---------------------------------------------------------------------------
# Event-driven estimator
# ---------------------------------------------------------------------------

class Estimator:
    """Single-sequence estimation pipeline over a time-ordered event stream.

    Feed events with process_event (in arrival order), then call finalize
    to flush the last window.  Output rows appear in `rows`, one per grid
    state, each carrying the final (smoothed) estimate that state had when
    it left the window.
    """

    def __init__(self, cfg: VehicleConfig, p_init: np.ndarray | None = None):
        self.cfg = cfg
        self.window = SlidingWindow(cfg)
        P0 = cfg.initial_params if p_init is None else p_init
        self.P = np.clip(P0, cfg.bounds.full_min(), cfg.bounds.full_max())
        self.rows: list[OutputRow] = []
        self.reports: list[SolveReport] = []
        self.counters = {
            "imu": 0, "steering": 0, "ref_vel": 0, "scans": 0,
            "stale_scans": 0, "stale_events": 0, "doppler_accepted": 0,
            "doppler_rejected": 0, "zv_states": 0, "solves": 0,
            "watchdog_solves": 0, "delta_clamped": 0,
            "unknown_radar_scans": 0,
        }
        self._imu_buffer: deque[ImuSample] = deque()
        self._input_hist: deque[InputSample] = deque()
        self._latest_delta = 0.0
        self._standstill = zupt.INITIAL_STANDSTILL
        self.attitude: zupt.AttitudeEstimate | None = None
        self._speed_proxy: float | None = None
        self._have_fix = False
        self._next_grid_t: float | None = None
        self._last_solve_t: float | None = None

    # -- input bookkeeping ------------------------------------------------

    def _current_input(self, t: float) -> InputSample:
        """The newest held input sample at or before t, else zero
        accelerations and yaw rate with the latest steering angle."""
        for u in reversed(self._input_hist):
            if u.t <= t + _T_EPS:
                return u
        return InputSample(t, 0.0, 0.0, 0.0, self._latest_delta)

    def _note_imu(self, ev: ImuSample) -> None:
        self.counters["imu"] += 1
        buf = self._imu_buffer
        buf.append(ev)
        horizon = self.cfg.thresholds.T_stop + 0.5
        while buf and buf[0].t < ev.t - horizon:
            buf.popleft()
        u = InputSample(ev.t, ev.ax, ev.ay, ev.r, self._latest_delta)
        hist = self._input_hist
        hist.append(u)
        while hist and hist[0].t < ev.t - 1.0:
            hist.popleft()
        self._update_standstill(ev)

    def _note_steering(self, ev: SteeringSample) -> None:
        self.counters["steering"] += 1
        delta = ev.delta / self.cfg.steering_ratio
        if abs(delta) > self.cfg.delta_max:
            self.counters["delta_clamped"] += 1
            delta = math.copysign(self.cfg.delta_max, delta)
        self._latest_delta = delta

    # -- standstill / attitude --------------------------------------------

    def _update_standstill(self, ev: ImuSample) -> None:
        if self._have_fix and len(self.window.t):
            x = self.window.X[-1]
            speed = math.hypot(x[0], x[1])
        else:
            speed = self._speed_proxy
        comp = zupt.accel_magnitude_deviation(ev.ax, ev.ay, ev.az,
                                              self.cfg.g)
        prev = self._standstill
        self._standstill = zupt.update_standstill(prev, speed, comp, ev.t,
                                                  self.cfg)
        if self._standstill.stationary and not prev.stationary:
            self._enter_standstill()

    def _enter_standstill(self) -> None:
        # from the start of the detector's run, which spans T_stop at any
        # IMU sample spacing
        samples = [s for s in self._imu_buffer
                   if s.t >= self._standstill.since]
        # estimated under the level assumption too: a window too short for
        # an attitude leaves this standstill without ZUPT targets
        try:
            att = zupt.estimate_attitude(samples, self.cfg)
        except EstimatorError:
            self.attitude = None
            return
        if self.cfg.assume_level_standstill:
            self.attitude = zupt.level_attitude(self.cfg.g)
        else:
            self.attitude = att

    # -- event ingestion ---------------------------------------------------

    def attach(self, ev) -> bool:
        """Route one event into the window; True when a solve is due.  A
        scan from a radar the config does not list is counted and dropped
        before it touches any state, as if it were not logged."""
        if (isinstance(ev, RadarScan)
                and not 0 <= ev.radar_id < len(self.cfg.radars)):
            self.counters["unknown_radar_scans"] += 1
            return False
        t_ev = event_time(ev)
        if not len(self.window.t):
            self.window.seed(t_ev, self._current_input(t_ev))
            self._next_grid_t = t_ev + self.cfg.thresholds.dt
            self._last_solve_t = t_ev
        elif (not isinstance(ev, RadarScan)
              and t_ev < self.window.oldest_t() - _T_EPS):
            self.counters["stale_events"] += 1
            raise StaleEventError(f"event at {t_ev} predates window")

        if isinstance(ev, ImuSample):
            self._note_imu(ev)
        elif isinstance(ev, SteeringSample):
            self._note_steering(ev)
        elif isinstance(ev, ReferenceVelocity):
            self.counters["ref_vel"] += 1

        self._advance_grid(t_ev)

        if isinstance(ev, RadarScan):
            return self._attach_scan(ev)
        return False

    def _advance_grid(self, t: float) -> None:
        dt = self.cfg.thresholds.dt
        while self._next_grid_t is not None and self._next_grid_t <= t + _T_EPS:
            tg = self._next_grid_t
            u = self._current_input(tg)
            self.window.push_state(tg, u)
            if self._standstill.stationary and self.attitude is not None:
                ax_t, ay_t = zupt.gravity_compensate(
                    u.ax_meas, u.ay_meas, self.attitude)
                self.window.zv[-1] = (ax_t, ay_t, u.r_meas)
                self.counters["zv_states"] += 1
            self._next_grid_t = tg + dt
            if (tg - self._last_solve_t
                    >= self.cfg.thresholds.watchdog_period - _T_EPS
                    and len(self.window.t) >= 2):
                self._solve_and_shift(tg, "watchdog")

    def _attach_scan(self, scan: RadarScan) -> bool:
        self.counters["scans"] += 1
        t_cap = scan.t_capture
        try:
            x_cap = self.window.ensure_state_at(t_cap,
                                                self._current_input(t_cap))
        except StaleScanError:
            self.counters["stale_scans"] += 1
            return False
        rows = radar_mod.scan_to_factors(scan, x_cap, self.cfg)
        self.window.dop = np.concatenate((self.window.dop, rows))
        self.counters["doppler_accepted"] += len(rows)
        self.counters["doppler_rejected"] += len(scan.points) - len(rows)
        if not self._have_fix:
            ls = radar_mod.ego_velocity_ls(
                scan, self.cfg.radars[scan.radar_id],
                self.cfg.thresholds.snr_min)
            if ls is not None:
                self._speed_proxy = math.hypot(ls[0], ls[1])
        return bool(len(rows))

    def process_event(self, ev) -> None:
        try:
            trigger = self.attach(ev)
        except StaleEventError:
            return
        if trigger:
            self._solve_and_shift(event_time(ev), "radar")
            self._have_fix = True

    def _solve_and_shift(self, t: float, trigger: str) -> None:
        self.P, report = solve(self.window, self.P, self.cfg)
        report.t = t
        report.trigger = trigger
        self.reports.append(report)
        self.counters["solves"] += 1
        if trigger == "watchdog":
            self.counters["watchdog_solves"] += 1
        self._emit(*self.window.shift(self.P))
        self._last_solve_t = t

    def _emit(self, t, X, U) -> None:
        for row in zip(t, X, U):
            self.rows.append(_output_row(*row, self.P, self.cfg))

    def finalize(self) -> None:
        """Flush rows for grid states still inside the window."""
        w = self.window
        self._emit(w.t[w.grid], w.X[w.grid], w.U[w.grid])
        self.window = SlidingWindow(self.cfg)

    @property
    def zupt_used(self) -> bool:
        return self.counters["zv_states"] > 0


def replay_events(events, cfg: VehicleConfig,
                  p_init: np.ndarray | None = None) -> Estimator:
    """Run the estimator over an iterable of events in arrival order.

    Cyclic garbage collection is paused during the replay; the estimator
    allocates no reference cycles and GC pauses would eat into the
    per-solve time budget.
    """
    est = Estimator(cfg, p_init=p_init)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for ev in events:
            est.process_event(ev)
    finally:
        if gc_was_enabled:
            gc.enable()
    est.finalize()
    return est
