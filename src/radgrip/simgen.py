"""Desk-scale ground truth and synthetic sensors.

The truth model is a dynamic single-track vehicle: the longitudinal speed
follows the maneuver script, lateral velocity and yaw rate integrate the
axle forces produced by the same tire formulas the estimator fits, and the
recorded accelerations are the body-frame quantities an ideal IMU would
see.  Sensor synthesis adds Gaussian IMU noise and biases, draws radar
point bearings from Cauchy distributions, computes their true Doppler with
the estimator's own projection formula, wraps it at the Nyquist velocity,
and delays each scan by a processing latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from radgrip import tire
from radgrip.core import (ImuSample, RadarExtrinsics, RadarPoint, RadarScan,
                          RangeError, ReferenceVelocity, SteeringSample,
                          TruthDivergenceError, VehicleConfig, event_time)
from radgrip.radar import body_projection, bearing_vectors

# lateral dynamics are frozen below this speed (vehicle crawling straight)
_V_FLOOR = 1.0

DT_SIM = 5e-4           # truth integration step (s)
IMU_RATE = 200.0        # sensor sample rates (Hz)
STEER_RATE = 100.0
REF_RATE = 100.0
# radar i captures at RADAR_PHASE + i * RADAR_OFFSET, then every
# RADAR_PERIOD (s)
RADAR_PERIOD = 0.060
RADAR_OFFSET = 0.020
RADAR_PHASE = 0.003


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

@dataclass
class NoiseConfig:
    """Parameters of the synthetic sensor distributions.

    Bearings are drawn from Cauchy distributions (scene structure with
    heavy tails), Doppler noise is Cauchy (outlier stimulus for the robust
    loss), measurement angle noise is Gaussian, latency is Gaussian clipped
    at zero.  Setting a Gaussian sigma or gamma_vd to zero produces
    noiseless channels for closed-loop exactness tests.
    """

    seed: int = 0
    imu_accel_std: float = 0.012
    imu_gyro_std: float = 0.0006
    imu_accel_bias: tuple = (0.05, -0.04)
    imu_gyro_bias: float = 0.001
    mu_N: float = 30.0
    sigma_N: float = 5.0
    mu_theta: float = 0.0
    gamma_theta: float = 0.25
    mu_phi: float = 0.0
    gamma_phi: float = 0.03
    sigma_theta: float = 0.005
    sigma_phi: float = 0.005
    mu_vd: float = 0.0
    gamma_vd: float = 0.04
    mu_td: float = 0.090
    sigma_td: float = 0.004
    snr_lo: float = 8.0
    snr_hi: float = 30.0
    outlier_frac: float = 0.0
    outlier_offset: float = 10.0

    def validate(self) -> "NoiseConfig":
        if self.gamma_theta <= 0 or self.gamma_phi <= 0:
            raise RangeError("bearing Cauchy scales must be positive")
        for name in ("imu_accel_std", "imu_gyro_std", "sigma_N",
                     "sigma_theta", "sigma_phi", "gamma_vd", "sigma_td",
                     "mu_td"):
            if getattr(self, name) < 0:
                raise RangeError(f"noise parameter {name} must be >= 0")
        if not (0.0 <= self.outlier_frac <= 1.0):
            raise RangeError("outlier_frac must be in [0, 1]")
        return self


# ---------------------------------------------------------------------------
# Maneuver scripts
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    duration: float
    v_end: float | None                      # None holds the entry speed
    steer: Callable[[float], float] | float = 0.0

    def steer_at(self, t_local: float) -> float:
        if callable(self.steer):
            return self.steer(t_local)
        return float(self.steer)


@dataclass
class ManeuverScript:
    name: str
    v0: float
    segments: list

    def duration(self) -> float:
        return sum(s.duration for s in self.segments)


def _sine_curvature_transition(offset: float, T: float, speed: float,
                               wheelbase: float) -> Callable[[float], float]:
    """Steering for a lateral lane transition of the given offset over T
    seconds at constant speed: one sine period of path curvature, which
    keeps the steer input continuous at the section boundaries."""
    kappa_pk = 2.0 * math.pi * offset / (speed * T) ** 2

    def steer(t: float) -> float:
        if t < 0.0 or t > T:
            return 0.0
        return math.atan(wheelbase * kappa_pk
                         * math.sin(2.0 * math.pi * t / T))
    return steer


def double_lane_change(speed: float, cfg: VehicleConfig) -> ManeuverScript:
    """ISO 3888-1 double-lane-change layout driven at the given speed.

    Section lengths follow the standard (15/30/25/25/15 m, 3.5 m offset)
    and are stretched linearly above a 25 m/s design speed so the required
    lateral acceleration stays inside the tire envelope.
    """
    scale = max(1.0, speed / 25.0)
    lengths = [15.0, 30.0, 25.0, 25.0, 15.0]
    durs = [L * scale / speed for L in lengths]
    wb = cfg.lf + cfg.lr
    segs = [
        Segment(durs[0], None, 0.0),
        Segment(durs[1], None,
                _sine_curvature_transition(3.5, durs[1], speed, wb)),
        Segment(durs[2], None, 0.0),
        Segment(durs[3], None,
                _sine_curvature_transition(-3.5, durs[3], speed, wb)),
        Segment(durs[4], None, 0.0),
    ]
    return ManeuverScript("double_lane_change", speed, segs)


def constant_radius(speed: float, delta: float,
                    hold: float = 6.0) -> ManeuverScript:
    ramp = 1.0
    segs = [
        Segment(ramp, None, lambda t: delta * min(t / ramp, 1.0)),
        Segment(hold, None, delta),
    ]
    return ManeuverScript("constant_radius", speed, segs)


def slalom(speed: float, amplitude: float, freq: float,
           duration: float) -> ManeuverScript:
    def steer(t: float) -> float:
        env = min(t / 1.0, 1.0)
        return amplitude * env * math.sin(2.0 * math.pi * freq * t)
    return ManeuverScript("slalom", speed,
                          [Segment(duration, None, steer)])


def _with_launch(name: str, top_speed: float, accel_time: float,
                 body: list, standstill: float = 1.5,
                 settle: float = 1.0) -> ManeuverScript:
    """Common scenario skeleton: standstill preamble, launch, settle, body."""
    segs = [
        Segment(standstill, 0.0, 0.0),
        Segment(accel_time, top_speed, 0.0),
        Segment(settle, None, 0.0),
    ]
    segs.extend(body)
    return ManeuverScript(name, 0.0, segs)


# ---------------------------------------------------------------------------
# Truth simulation
# ---------------------------------------------------------------------------

@dataclass
class TruthTrajectory:
    """Dense truth signals on a fixed dt_sim grid (body-frame IMU-sense
    accelerations; axle forces and slip angles from the tire model)."""

    dt_sim: float
    t: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    r: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    delta: np.ndarray
    Fyf: np.ndarray
    Fyr: np.ndarray
    alpha_f: np.ndarray
    alpha_r: np.ndarray

    def index_at(self, t: float) -> int:
        i = int(round((t - self.t[0]) / self.dt_sim))
        return min(max(i, 0), len(self.t) - 1)


def simulate_truth(script: ManeuverScript, P_truth: np.ndarray,
                   cfg: VehicleConfig) -> TruthTrajectory:
    """Integrate the single-track truth dynamics over the script.

    vx follows the scripted speed profile; vy and r integrate the tire
    forces; below a small speed floor the lateral dynamics are frozen.
    Raises TruthDivergenceError if |vy| exceeds vx at speed.
    """
    n = int(round(script.duration() / DT_SIM)) + 1
    t = np.arange(n) * DT_SIM

    vx_prof = np.empty(n)
    delta_prof = np.empty(n)
    seg_start = 0.0
    v_entry = script.v0
    si = 0
    seg = script.segments[si]
    for i, ti in enumerate(t):
        while ti > seg_start + seg.duration + 1e-12:
            seg_start += seg.duration
            v_entry = seg.v_end if seg.v_end is not None else v_entry
            si = min(si + 1, len(script.segments) - 1)
            seg = script.segments[si]
        tl = ti - seg_start
        if seg.v_end is None:
            vx_prof[i] = v_entry
        else:
            frac = min(tl / seg.duration, 1.0) if seg.duration > 0 else 1.0
            vx_prof[i] = v_entry + (seg.v_end - v_entry) * frac
        delta_prof[i] = seg.steer_at(tl)

    dvx = np.gradient(vx_prof, DT_SIM)
    vy = np.zeros(n)
    r = np.zeros(n)
    ax = np.zeros(n)
    ay = np.zeros(n)
    Fyf = np.zeros(n)
    Fyr = np.zeros(n)
    af = np.zeros(n)
    ar = np.zeros(n)
    pf, pr = P_truth[:6], P_truth[6:]

    vy_k = 0.0
    r_k = 0.0
    for i in range(n):
        vx_k = vx_prof[i]
        d_k = delta_prof[i]
        if vx_k < _V_FLOOR:
            vy_k = 0.0
            r_k = 0.0
            ax[i] = dvx[i]
            continue
        af_k, ar_k = tire.slip_angles(vx_k, vy_k, r_k, d_k, cfg)
        ax_k = dvx[i] - r_k * vy_k
        Fzf, Fzr = tire.vertical_loads(vx_k, ax_k, cfg)
        Yf, _, _ = tire.magic_formula_derivs(tire.force_slip(af_k), pf)
        Yr, _, _ = tire.magic_formula_derivs(tire.force_slip(ar_k), pr)
        Fyf_k = Fzf * float(Yf)
        Fyr_k = Fzr * float(Yr)
        ay_k = (Fyf_k * math.cos(d_k) + Fyr_k) / cfg.m
        vy_dot = ay_k - r_k * vx_k
        r_dot = (cfg.lf * Fyf_k * math.cos(d_k) - cfg.lr * Fyr_k) / cfg.Iz
        vy[i], r[i] = vy_k, r_k
        ax[i], ay[i] = ax_k, ay_k
        Fyf[i], Fyr[i] = Fyf_k, Fyr_k
        af[i], ar[i] = af_k, ar_k
        vy_k += vy_dot * DT_SIM
        r_k += r_dot * DT_SIM
        if abs(vy_k) > max(vx_k, _V_FLOOR):
            raise TruthDivergenceError(
                f"truth diverged at t={t[i]:.3f}s (|vy|={abs(vy_k):.2f} "
                f"> vx={vx_k:.2f})")
    return TruthTrajectory(DT_SIM, t, vx_prof, vy, r, ax, ay, delta_prof,
                           Fyf, Fyr, af, ar)


# ---------------------------------------------------------------------------
# Sensor synthesis
# ---------------------------------------------------------------------------

def gen_imu(truth: TruthTrajectory, noise: NoiseConfig,
            rng: np.random.Generator) -> list[ImuSample]:
    """Sample the truth at IMU_RATE, adding white noise and the
    configured constant biases.  az/gx/gy carry the level-vehicle values."""
    n = int(math.floor(truth.t[-1] * IMU_RATE)) + 1
    ts = np.arange(n) / IMU_RATE
    idx = np.round(ts / truth.dt_sim).astype(int)
    idx = np.clip(idx, 0, len(truth.t) - 1)
    sa, sg = noise.imu_accel_std, noise.imu_gyro_std
    bx, by = noise.imu_accel_bias
    g = 9.81
    na = rng.normal(0.0, 1.0, size=(n, 3)) * sa
    ng = rng.normal(0.0, 1.0, size=(n, 3)) * sg
    out = []
    for k in range(n):
        i = idx[k]
        out.append(ImuSample(
            t=float(ts[k]),
            ax=float(truth.ax[i] + bx + na[k, 0]),
            ay=float(truth.ay[i] + by + na[k, 1]),
            r=float(truth.r[i] + noise.imu_gyro_bias + ng[k, 2]),
            az=float(g + na[k, 2]),
            gx=float(ng[k, 0]),
            gy=float(ng[k, 1]),
        ))
    return out


def wrap(v, V_N: float):
    """Fold a Doppler velocity into the observable band (-V_N, V_N].

    Exact +V_N maps to +V_N; the band is half-open on the negative side.
    """
    v_arr = np.asarray(v, dtype=float)
    w = v_arr - 2.0 * V_N * np.rint(v_arr / (2.0 * V_N))
    w = np.where(w <= -V_N, w + 2.0 * V_N, w)
    w = np.where(w > V_N, w - 2.0 * V_N, w)
    if np.isscalar(v) or v_arr.ndim == 0:
        return float(w)
    return w


def gen_radar_scan(truth: TruthTrajectory, t_capture: float,
                   radar_id: int, ext: RadarExtrinsics, noise: NoiseConfig,
                   rng: np.random.Generator) -> RadarScan:
    """One synthetic scan at the capture time.

    True Doppler uses the estimator's projection formula on the exact
    bearings; the reported bearings carry Gaussian noise, the Doppler is
    wrapped at the Nyquist velocity, and arrival is delayed by the drawn
    processing latency.
    """
    i = truth.index_at(t_capture)
    vx, vy, r = truth.vx[i], truth.vy[i], truth.r[i]
    n_pts = max(0, int(round(rng.normal(noise.mu_N, noise.sigma_N))))
    theta = np.clip(noise.mu_theta
                    + noise.gamma_theta * rng.standard_cauchy(n_pts),
                    -ext.fov_azimuth, ext.fov_azimuth)
    phi = np.clip(noise.mu_phi
                  + noise.gamma_phi * rng.standard_cauchy(n_pts),
                  -ext.fov_elevation, ext.fov_elevation)
    b = bearing_vectors(theta, phi)
    cx, cy, lever = body_projection(ext, b)
    v_true = -(cx * vx + cy * vy + lever * r)
    out_u = rng.uniform(0.0, 1.0, n_pts)
    v_true = np.where(out_u < noise.outlier_frac,
                      v_true + noise.outlier_offset, v_true)
    n_vd = noise.mu_vd + noise.gamma_vd * rng.standard_cauchy(n_pts)
    v_d = wrap(v_true + n_vd, ext.nyquist) if n_pts else np.zeros(0)
    theta_hat = np.clip(theta + rng.normal(0.0, 1.0, n_pts)
                        * noise.sigma_theta,
                        -ext.fov_azimuth, ext.fov_azimuth)
    phi_hat = np.clip(phi + rng.normal(0.0, 1.0, n_pts) * noise.sigma_phi,
                      -ext.fov_elevation, ext.fov_elevation)
    snr = rng.uniform(noise.snr_lo, noise.snr_hi, n_pts)
    rng_m = rng.uniform(5.0, 120.0, n_pts)
    # always drawn so the stream position is independent of the parameters
    latency = max(0.0, rng.normal(noise.mu_td, noise.sigma_td))
    points = tuple(
        RadarPoint(float(rng_m[k]), float(theta_hat[k]), float(phi_hat[k]),
                   float(v_d[k]), float(snr[k]))
        for k in range(n_pts))
    return RadarScan(radar_id, float(t_capture),
                     float(t_capture + latency), points)


def run_scenario(script: ManeuverScript, P_truth: np.ndarray,
                 noise: NoiseConfig, cfg: VehicleConfig):
    """Generate the full interleaved sensor stream plus the aligned truth.

    Returns (events, truth): events sorted by arrival time (radar scans by
    t_receive, everything else by sample time), truth on the dense grid.
    The three radars trigger on staggered slots; the small phase keeps
    capture instants off the state grid so delayed-state insertion is
    exercised.
    """
    noise.validate()
    truth = simulate_truth(script, P_truth, cfg)
    rng = np.random.default_rng(noise.seed)
    events: list = []
    events.extend(gen_imu(truth, noise, rng))
    t_end = truth.t[-1]
    n_st = int(math.floor(t_end * STEER_RATE)) + 1
    for k in range(n_st):
        t = k / STEER_RATE
        events.append(SteeringSample(t, float(
            truth.delta[truth.index_at(t)])))
    n_rf = int(math.floor(t_end * REF_RATE)) + 1
    for k in range(n_rf):
        t = k / REF_RATE
        i = truth.index_at(t)
        events.append(ReferenceVelocity(t, float(truth.vx[i]),
                                        float(truth.vy[i])))
    for rid, ext in enumerate(cfg.radars):
        t_cap = RADAR_PHASE + rid * RADAR_OFFSET
        while t_cap <= t_end + 1e-9:
            events.append(gen_radar_scan(truth, t_cap, rid, ext, noise, rng))
            t_cap += RADAR_PERIOD
    rank = {SteeringSample: 0, ImuSample: 1, ReferenceVelocity: 2,
            RadarScan: 3}
    events.sort(key=lambda ev: (event_time(ev), rank[type(ev)]))
    return events, truth


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# [B, C, D, E, Sh, Sv] front, then rear
P_TRUTH_DEFAULT = np.array([10.5, 1.65, 0.92, 0.20, 0.0, 0.0,
                            12.0, 1.60, 0.98, 0.10, 0.0, 0.0])


def _scaled_grip(p: np.ndarray, factor: float) -> np.ndarray:
    """p with both axles' peak factor D scaled."""
    p = p.copy()
    p[[2, 8]] *= factor
    return p


@dataclass
class ScenarioSpec:
    name: str
    script: ManeuverScript
    p_truth: np.ndarray
    noise: NoiseConfig


def _fitlap_body(cfg: VehicleConfig) -> list:
    """Varied cornering at 30-45 m/s spanning the usable slip range."""
    segs = []

    def corner(duration, delta, ramp=0.8):
        def steer(t, d=delta, rp=ramp, T=duration):
            env = min(t / rp, 1.0, max((T - t) / rp, 0.0))
            return d * env
        return steer

    plan = [
        (4.0, 0.030, None), (3.0, -0.034, None),
        (2.0, 0.0, 45.0), (4.0, 0.020, None), (4.0, -0.028, 38.0),
        (3.5, 0.040, 32.0), (3.0, -0.042, None), (2.0, 0.0, 42.0),
        (4.0, 0.026, None), (3.5, -0.022, None),
    ]
    for dur, delta, v_end in plan:
        segs.append(Segment(dur, v_end, corner(dur, delta)))
    def weave(t):
        return 0.025 * math.sin(2.0 * math.pi * 0.4 * t)
    segs.append(Segment(5.0, None, weave))
    return segs


def make_scenario(name: str, cfg: VehicleConfig,
                  seed: int = 0) -> ScenarioSpec:
    """Build one of the named presets; raises KeyError for unknown names."""
    noise = NoiseConfig(seed=seed)
    p = P_TRUTH_DEFAULT
    if name == "standstill":
        script = ManeuverScript("standstill", 0.0,
                                [Segment(3.0, 0.0, 0.0)])
        noise = replace(noise, imu_accel_bias=(0.15, 0.15),
                        imu_gyro_bias=0.008)
    elif name in ("dlc65", "dlc65_outliers"):
        dlc = double_lane_change(65.0, cfg)
        body = list(dlc.segments) + [Segment(1.5, None, 0.0)]
        script = _with_launch("dlc65", 65.0, 5.0, body)
        if name == "dlc65_outliers":
            noise = replace(noise, outlier_frac=0.2)
    elif name == "const_radius":
        body = list(constant_radius(30.0, 0.035).segments)
        script = _with_launch(name, 30.0, 3.0, body)
    elif name == "slalom":
        body = list(slalom(25.0, 0.05, 0.5, 6.0).segments)
        script = _with_launch(name, 25.0, 2.5, body)
    elif name == "brake_turn":
        body = [
            Segment(2.0, None, 0.0),
            Segment(2.0, 25.0, 0.0),
            Segment(3.0, None, lambda t: 0.06 * min(t / 1.0, 1.0)),
            Segment(1.5, None, 0.0),
        ]
        script = _with_launch(name, 55.0, 4.5, body)
        p = _scaled_grip(P_TRUTH_DEFAULT, 0.65)
    elif name == "fitlap":
        script = _with_launch(name, 40.0, 4.0, _fitlap_body(cfg))
    else:
        raise KeyError(name)
    return ScenarioSpec(name, script, p, noise)


PRESET_NAMES = ("standstill", "dlc65", "dlc65_outliers", "const_radius",
                "slalom", "brake_turn", "fitlap")
