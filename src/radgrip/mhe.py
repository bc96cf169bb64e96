"""Sliding-window problem assembly and the bounded nonlinear least-squares
solver that jointly refines vehicle states and tire parameters.

The window is held as arrays, one row per state, oldest first: times t,
estimates X, inputs U, a grid flag and a ZUPT flag zv, plus one row per
accepted Doppler observation in dop.  An input is carried as the U row it
becomes, (ax, ay, r, delta), from the IMU sample to the output row, and a
ZUPT state's targets are its own U row (ax, ay, r).  States enter by one
way, SlidingWindow.push_state: the first event seeds the window, a grid
state enters every dt (10 ms default), and a radar scan binds its Doppler
rows to the state at its capture time, inserting one back in time when
the capture instant falls between states.  The full problem is solved when a scan
contributes at least one gated-in row, after which the window sheds its
oldest rows.  Each solve's priors are centred on its entry iterate: the
window's first state and the tire parameters of the previous solve.

The solver takes at most solver.max_iterations (default 1) Gauss-Newton
steps on the dense window problem, so the estimate never depends on the
clock.  WindowProblem is one table of factor classes, each giving its
unwhitened residual rows and Jacobian blocks and carrying its inverse
standard deviations w, which only residuals and jacobian apply: the
process chain's -F and I blocks over consecutive states, identity blocks
for the priors and ZUPT, lateral-force and Doppler blocks on their
states' columns, and the 12 tire-parameter columns.  Each step scatters
the whitened blocks into a dense J, then forms J^T J and its Cholesky
factor; residuals and Jacobian are fresh arrays per call, no buffer is
reused.  Tire parameters are clamped into their box, and a step is kept
only if it lowers the cost.  Doppler rows carry a Cauchy robust loss,
everything else is quadratic.
"""

from __future__ import annotations

import gc
import math
import time
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from radgrip import motion, tire, zupt
from radgrip import radar as radar_mod
from radgrip.core import (ImuSample, NumericError, RadarScan,
                          SteeringSample, VehicleConfig, event_time)
from radgrip.motion import predict_array

_T_EPS = 1e-9


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------

class SlidingWindow:
    """Time-ordered states with attached measurements.

    State k is row k of
      t (K,)     time,
      X (K, 6)   current estimate [vx, vy, r, bx, by, br],
      U (K, 4)   inputs [ax, ay, r, delta] governing [t_k, t_k+1) and the
                 models at t_k,
      grid (K,)  True for 10 ms grid states (output rows), False for states
                 inserted only at a scan's capture time,
      zv (K,)    True for ZUPT states, whose targets are their own U row
                 (ax, ay, r): the state was at rest under that input.
    Each accepted Doppler observation is one row [t_state, v_r, cx, cy,
    lever] of dop (M, 5), bound to the state at t_state; its expected value
    is -(cx*vx + cy*vy + lever*r) and its deviation the configured
    sigma_doppler.  push_state is the one way in: it returns the row of
    the state at a time, inserting that state if none is there, so every
    insertion keeps t strictly increasing.  Rows are added by
    concatenation, so every array is replaced, never resized, when the
    window grows.
    """

    def __init__(self, cfg: VehicleConfig):
        self.cfg = cfg
        self.t = np.empty(0)
        self.X = np.empty((0, 6))
        self.U = np.empty((0, 4))
        self.grid = np.empty(0, dtype=bool)
        self.zv = np.empty(0, dtype=bool)
        self.dop = np.empty((0, 5))

    def _states(self):
        return self.t, self.X, self.U, self.grid, self.zv

    def push_state(self, t: float, u: tuple, grid: bool = True) -> int | None:
        """Row of the state at time t, inserting one with U row u when no
        state lies within _T_EPS of t; grid is OR-ed into that row's flag.

        An inserted state starts at the initial biases in an empty window,
        at the newest state predicted to t under its own input beyond the
        newest state, and at the linear interpolation of its neighbours
        otherwise; process residuals re-link across the split.  Returns
        None, inserting nothing, when t predates the window.
        """
        K = len(self.t)
        # appending is the common case, so it skips the search
        if K and t - self.t[-1] > _T_EPS:
            i = K
        elif K and t < self.t[0] - _T_EPS:
            return None
        else:
            i = int(np.searchsorted(self.t, t - _T_EPS))
            if i < K and abs(self.t[i] - t) <= _T_EPS:
                self.grid[i] |= grid
                return i
        if not K:
            x = np.zeros(6)
            x[3:6] = self.cfg.initial_biases
        elif i == K:
            ax, ay, r, _ = self.U[-1]
            x = predict_array(self.X[-1], ax, ay, r, t - self.t[-1])
        else:
            w = (t - self.t[i - 1]) / (self.t[i] - self.t[i - 1])
            x = (1.0 - w) * self.X[i - 1] + w * self.X[i]
        self.t, self.X, self.U, self.grid, self.zv = (
            np.concatenate((a[:i], [v], a[i:]))
            for a, v in zip(self._states(), (t, x, u, grid, False)))
        return i

    def shift(self):
        """Evict states until the span fits the horizon.

        Returns (t, X, U) of the evicted grid states, oldest first.
        """
        # t is sorted, so the states beyond the horizon form a prefix
        n = int(np.count_nonzero(
            self.t[-1] - self.t > self.cfg.thresholds.dTw + _T_EPS))
        g = self.grid[:n]
        evicted = self.t[:n][g], self.X[:n][g], self.U[:n][g]
        if n:
            self.t, self.X, self.U, self.grid, self.zv = (
                a[n:] for a in self._states())
            self.dop = self.dop[self.dop[:, 0] >= self.t[0] - _T_EPS]
        return evicted


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------

# One factor class of a window problem: n instances of m rows each.
# residual(X, P) gives the (n, m) unwhitened residuals; jacobian(X, P)
# gives one (first column per instance (n,), blocks broadcasting to
# (n, m, c)) pair per block column of J; w, the class's inverse standard
# deviations, broadcasts to (n, m) and whitens both.
Factor = namedtuple("Factor", "name n m w residual jacobian")


def identity_factor(name: str, col: np.ndarray, rows, target: np.ndarray,
                    w) -> Factor:
    """The Factor rows(X, P) - target, whose n instances are the (n, m)
    variables from columns col (n,) on: its blocks are identity."""
    n, m = target.shape
    return Factor(name, n, m, w, lambda X, P: rows(X, P) - target,
                  lambda X, P: [(col, np.eye(m)[None])])


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
    and P the 12 tire parameters (front then rear axle).  P_init is taken
    as given; solve_problem clamps the initial iterate into the box.  The
    priors are centred on the entry iterate: the state prior on the
    window's first state, the parameter prior on P_init.

    table holds one Factor per class in row order: the two priors,
    process, ZUPT, lateral force and Doppler, each binding this window's
    rows and weights to a domain module's residual and partials, or to
    identity_factor for the priors and ZUPT.  A class with no instances is
    not evaluated.  Doppler comes last: its rows, the only ones under the
    Cauchy loss, end r.  Entries close over arrays, never over the problem,
    so a problem is freed by reference counting alone (replay_events
    disables gc).
    """

    def __init__(self, window: SlidingWindow, P_init: np.ndarray,
                 cfg: VehicleConfig):
        cov = cfg.covariances
        self.cfg = cfg
        K = self.K = len(window.t)
        self.X_init = window.X
        self.P_init = P_init
        self.cauchy = cfg.solver.cauchy_scale
        t, U, dop = window.t, window.U, window.dop
        dt = np.diff(t)
        u_ax, u_ay, u_r, u_delta = U.T
        w_proc = 1.0 / np.sqrt(
            cov.Sigma_w[None, :] * (dt[:, None] / cfg.thresholds.dt))
        proc_col = 6 * np.arange(K - 1)
        zv_idx = np.flatnonzero(window.zv)
        # a ZUPT state's targets: zero velocities and its own U row
        zv_target = np.hstack((np.zeros((len(zv_idx), 3)), U[zv_idx, :3]))

        # lateral-force rows: gate on the entry estimates, fixed per solve
        fy_idx = np.flatnonzero(tire.force_gate(
            window.X[:, 0], window.X[:, 1], u_ax, u_delta, cfg))
        fy_ax, fy_delta = u_ax[fy_idx], u_delta[fy_idx]
        fy_meas = tire.measured_lateral_forces(u_ay[fy_idx], fy_delta, cfg)
        fy_cols = (6 * fy_idx, np.full(len(fy_idx), 6 * K))

        dop_idx = np.searchsorted(t, dop[:, 0] - _T_EPS)
        vr, cx, cy, lever = dop[:, 1:].T

        self.table = (
            identity_factor("prior_state", np.zeros(1, int),
                            lambda X, P: X[:1], window.X[:1].copy(),
                            1.0 / np.sqrt(cov.Sigma_x0)),
            identity_factor("prior_params", np.full(1, 6 * K),
                            lambda X, P: P[None], P_init[None],
                            1.0 / np.sqrt(cov.Sigma_P)),
            Factor("process", K - 1, 6, w_proc,
                   lambda X, P: motion.process_residual(
                       X, u_ax, u_ay, u_r, dt),
                   lambda X, P: [
                       (proc_col, -motion.transition_jacobian(X[:-1], dt)),
                       (proc_col + 6, np.eye(6)[None])]),
            identity_factor("zupt", 6 * zv_idx, lambda X, P: X[zv_idx],
                            zv_target, 1.0 / np.sqrt(cov.Sigma_zv)),
            Factor("lateral_force", len(fy_idx), 2,
                   1.0 / np.sqrt(cov.Sigma_Fy),
                   lambda X, P: tire.lateral_force_residual(
                       X[fy_idx], fy_ax, fy_delta, fy_meas, P, cfg),
                   lambda X, P: zip(fy_cols, tire.lateral_force_jacobian(
                       X[fy_idx], fy_ax, fy_delta, P, cfg))),
            Factor("doppler", len(dop), 1,
                   1.0 / np.float64(cov.sigma_doppler),
                   lambda X, P: radar_mod.doppler_residual(
                       X[dop_idx], vr, cx, cy, lever)[:, None],
                   lambda X, P: [(6 * dop_idx, dop[:, None, 2:])]),
        )
        self.slices = {}
        off = 0
        for f in self.table:
            self.slices[f.name] = slice(off, off + f.n * f.m)
            off += f.n * f.m
        self.nrows = off
        self.nvar = 6 * K + 12
        self.robust = self.slices[self.table[-1].name]

    def z_init(self) -> np.ndarray:
        return np.concatenate([self.X_init.ravel(), self.P_init])

    def clamp(self, z: np.ndarray) -> np.ndarray:
        b = self.cfg.bounds
        z[6 * self.K:] = np.clip(tire.axles(z[6 * self.K:]), b.P_min,
                                 b.P_max).ravel()
        return z

    def _split(self, z: np.ndarray):
        return z[:6 * self.K].reshape(self.K, 6), z[6 * self.K:]

    def residuals(self, z: np.ndarray) -> np.ndarray:
        X, P = self._split(z)
        r = np.empty(self.nrows)
        for f in self.table:
            if f.n:
                r[self.slices[f.name]] = (f.residual(X, P) * f.w).ravel()
        return r

    def check_finite(self, r: np.ndarray) -> None:
        if np.all(np.isfinite(r)):
            return
        for name, sl in self.slices.items():
            if not np.all(np.isfinite(r[sl])):
                raise NumericError(f"non-finite residuals in {name}")

    def cost(self, r: np.ndarray) -> float:
        quad = r[:self.robust.start]
        return float(quad @ quad) + cauchy_loss(r[self.robust], self.cauchy)

    def cost_breakdown(self, r: np.ndarray) -> dict:
        out = {name: float(r[sl] @ r[sl]) for name, sl in self.slices.items()}
        out[self.table[-1].name] = cauchy_loss(r[self.robust], self.cauchy)
        return out

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        X, P = self._split(z)
        J = np.zeros((self.nrows, self.nvar))
        for f in self.table:
            if f.n:
                sl = self.slices[f.name]
                rows = np.arange(sl.start, sl.stop).reshape(f.n, f.m, 1)
                for col0, blocks in f.jacobian(X, P):
                    J[rows, col0[:, None, None] + np.arange(
                        blocks.shape[2])] = blocks * f.w[..., None]
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
    r = problem.residuals(z)
    problem.check_finite(r)
    cost = initial_cost = problem.cost(r)
    dop = problem.robust
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
        z, r, cost = z_new, r_new, cost_new

    report = SolveReport(
        iterations=iters,
        initial_cost=initial_cost,
        final_cost=cost,
        wall_time=time.perf_counter() - t_start,
        termination=term,
        breakdown=problem.cost_breakdown(r),
        n_states=problem.K,
        n_doppler=problem.table[-1].n,
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

# one row per grid state; its fields are the estimate CSV header
OutputRow = namedtuple("OutputRow", (
    "t", "vx", "vy", "r", "bx", "by", "br", "alpha_f", "alpha_r", "Fyf",
    "Fyr", "BCD_f", "BCD_r", "beta"))


def output_rows(t: np.ndarray, X: np.ndarray, U: np.ndarray, P: np.ndarray,
                cfg: VehicleConfig) -> list[OutputRow]:
    """Output rows of states X (n, 6) at times t with U rows
    [ax, ay, r, delta].  Slip, force and side-slip fields are None outside
    the lateral-force gate and at a nonphysical (non-positive) vertical
    load."""
    # alpha_f, alpha_r, Fyf, Fyr, beta: computed on the gated states only
    lateral = np.full((len(t), 5), None, dtype=object)
    gated = tire.force_gate(X[:, 0], X[:, 1], U[:, 0], U[:, 3], cfg)
    if gated.any():
        Xg, ax_meas, delta = X[gated], U[gated, 0], U[gated, 3]
        lateral[gated] = np.column_stack((
            tire.slip_angles(Xg[:, 0], Xg[:, 1], Xg[:, 2], delta, cfg),
            tire.model_lateral_forces(Xg, ax_meas, delta, P, cfg),
            np.arctan(Xg[:, 1] / Xg[:, 0])))
    bcd = tire.cornering_stiffness(tire.axles(P)).tolist()
    return [OutputRow(tk, *x, *lat[:4], *bcd, lat[4])
            for tk, x, lat in zip(t.tolist(), X.tolist(), lateral.tolist())]


# ---------------------------------------------------------------------------
# Event-driven estimator
# ---------------------------------------------------------------------------

# counter of an admitted event, and of one dropped as late, per fused class
_ADMITTED = {ImuSample: "imu", SteeringSample: "steering", RadarScan: "scans"}
_LATE = {cls: "late_" + name for cls, name in _ADMITTED.items()}
# counter of a Doppler point per gate rejection reason
_REJECTED = {radar_mod.REJECT_ALIAS: "doppler_rejected_alias",
             radar_mod.REJECT_LOW_SNR: "doppler_rejected_low_snr",
             radar_mod.REJECT_INNOVATION: "doppler_rejected_innovation"}


class Estimator:
    """Single-sequence estimation pipeline over a time-ordered event stream.

    Feed events with process_event (in arrival order), then call finalize
    to flush the last window.  Output rows appear in `rows`, one per grid
    state, each carrying the final (smoothed) estimate that state had when
    it left the window.  attach admits every event of a fused stream by
    one rule; each is counted under its class (imu, steering, scans) or
    under the reason it was dropped.  Any other event, such as the optical
    reference, is ignored uncounted.
    """

    def __init__(self, cfg: VehicleConfig):
        self.cfg = cfg
        self.window = SlidingWindow(cfg)
        # the one clip of the start vector into the box
        self.P = np.clip(tire.axles(cfg.initial_params), cfg.bounds.P_min,
                         cfg.bounds.P_max).ravel()
        self.rows: list[OutputRow] = []
        self.reports: list[SolveReport] = []
        self.counters = dict.fromkeys((
            *_ADMITTED.values(), *_LATE.values(), "unknown_radar_scans",
            "stale_events", "stale_scans", "doppler_accepted",
            "doppler_rejected", *_REJECTED.values(), "zv_states", "solves",
            "watchdog_solves", "delta_clamped"), 0)
        # own time of the newest admitted event per stream: an event class,
        # or a radar id for scans
        self._newest: dict = {}
        # (t, U row) per IMU sample, oldest first
        self._input_hist: deque[tuple[float, tuple]] = deque()
        self._latest_delta = 0.0
        self._standstill = zupt.INITIAL_STANDSTILL
        self._have_fix = False
        self._next_grid_t: float | None = None
        self._last_solve_t: float | None = None

    # -- input bookkeeping ------------------------------------------------

    def _current_input(self, t: float) -> tuple:
        """The U row (ax, ay, r, delta) of the newest held IMU sample at or
        before t, else zero accelerations and yaw rate with the latest
        steering angle."""
        for t_u, u in reversed(self._input_hist):
            if t_u <= t + _T_EPS:
                return u
        return (0.0, 0.0, 0.0, self._latest_delta)

    def _note_imu(self, ev: ImuSample) -> None:
        hist = self._input_hist
        hist.append((ev.t, (ev.ax, ev.ay, ev.r, self._latest_delta)))
        # every lookup is at or after the window start, so the newest
        # sample at or before it is the oldest one needed
        while len(hist) > 1 and hist[1][0] <= self.window.t[0]:
            hist.popleft()
        # the detector has no speed until the first radar fix
        speed = (math.hypot(*self.window.X[-1, :2]) if self._have_fix
                 else None)
        comp = zupt.accel_magnitude_deviation(ev.ax, ev.ay, ev.az,
                                              self.cfg.g)
        self._standstill = zupt.update_standstill(self._standstill, speed,
                                                  comp, ev.t, self.cfg)

    def _note_steering(self, ev: SteeringSample) -> None:
        delta = ev.delta / self.cfg.steering_ratio
        if abs(delta) > self.cfg.delta_max:
            self.counters["delta_clamped"] += 1
            delta = math.copysign(self.cfg.delta_max, delta)
        self._latest_delta = delta

    # -- event ingestion ---------------------------------------------------

    def attach(self, ev) -> bool:
        """Route one event into the window; True when a solve is due.

        An event of a class not fused, such as the optical reference, is
        ignored uncounted.  A stream is a fused event class, or a radar id
        for scans; an event's own time is a scan's capture time, any other
        event's sample time.  The first of these checks an event fails
        drops it, counted, before it touches any state: a scan from a radar
        the config does not list (unknown_radar_scans), a non-radar event
        older than the window start (stale_events), an own time not after
        the newest admitted one of its stream (late_imu, late_steering,
        late_scans).  An admitted scan captured before the window start
        binds nothing and is counted again in stale_scans.
        """
        cls = type(ev)
        if cls not in _ADMITTED:
            return False
        t_ev = event_time(ev)
        if cls is RadarScan:
            if not 0 <= ev.radar_id < len(self.cfg.radars):
                self.counters["unknown_radar_scans"] += 1
                return False
            stream, t_own = ev.radar_id, ev.t_capture
        else:
            stream, t_own = cls, t_ev
        if not len(self.window.t):
            self.window.push_state(t_ev, self._current_input(t_ev))
            self._next_grid_t = t_ev + self.cfg.thresholds.dt
            self._last_solve_t = t_ev
        elif cls is not RadarScan and t_ev < self.window.t[0] - _T_EPS:
            self.counters["stale_events"] += 1
            return False
        if t_own <= self._newest.get(stream, -math.inf):
            self.counters[_LATE[cls]] += 1
            return False
        self._newest[stream] = t_own
        self.counters[_ADMITTED[cls]] += 1
        if cls is ImuSample:
            self._note_imu(ev)
        elif cls is SteeringSample:
            self._note_steering(ev)
        self._advance_grid(t_ev)
        # a watchdog solve in the advance can shift the window past a
        # scan's capture, so the capture is pushed after it
        return cls is RadarScan and self._attach_scan(ev)

    def _advance_grid(self, t: float) -> None:
        dt = self.cfg.thresholds.dt
        while self._next_grid_t <= t + _T_EPS:
            tg = self._next_grid_t
            i = self.window.push_state(tg, self._current_input(tg))
            if self._standstill.stationary:
                self.window.zv[i] = True
                self.counters["zv_states"] += 1
            self._next_grid_t = tg + dt
            if (tg - self._last_solve_t
                    >= self.cfg.thresholds.watchdog_period - _T_EPS):
                self._solve_and_shift(tg, watchdog=True)

    def _attach_scan(self, scan: RadarScan) -> bool:
        t_cap = scan.t_capture
        i = self.window.push_state(t_cap, self._current_input(t_cap),
                                   grid=False)
        if i is None:
            self.counters["stale_scans"] += 1
            return False
        rows, rejected = radar_mod.scan_to_factors(scan, self.window.X[i],
                                                   self.cfg)
        self.window.dop = np.concatenate((self.window.dop, rows))
        self.counters["doppler_accepted"] += len(rows)
        self.counters["doppler_rejected"] += len(rejected)
        for reason in rejected:
            self.counters[_REJECTED[reason]] += 1
        return bool(len(rows))

    def process_event(self, ev) -> None:
        if self.attach(ev):
            self._solve_and_shift(event_time(ev))
            self._have_fix = True

    def _solve_and_shift(self, t: float, watchdog: bool = False) -> None:
        self.P, report = solve(self.window, self.P, self.cfg)
        self.reports.append(report)
        self.counters["solves"] += 1
        self.counters["watchdog_solves"] += watchdog
        self._emit(*self.window.shift())
        self._last_solve_t = t

    def _emit(self, t, X, U) -> None:
        self.rows += output_rows(t, X, U, self.P, self.cfg)

    def finalize(self) -> None:
        """Flush rows for grid states still inside the window."""
        w = self.window
        self._emit(w.t[w.grid], w.X[w.grid], w.U[w.grid])
        self.window = SlidingWindow(self.cfg)


def replay_events(events, cfg: VehicleConfig) -> Estimator:
    """Run the estimator over an iterable of events in arrival order.

    Cyclic garbage collection is paused during the replay; the estimator
    allocates no reference cycles and GC pauses would eat into the
    per-solve time budget.
    """
    est = Estimator(cfg)
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
