"""Desk-scale ground truth and synthetic sensors.

The truth model is a dynamic single-track vehicle: the longitudinal speed
follows the maneuver script, lateral velocity and yaw rate integrate the
axle forces produced by the same tire formulas the estimator fits, and the
recorded accelerations are the body-frame quantities an ideal IMU would
see.  Sensor synthesis adds Gaussian IMU noise and biases, draws radar
point bearings from Cauchy distributions, computes their true Doppler with
the estimator's radar.expected_doppler, wraps it at the Nyquist velocity,
and delays each scan by a processing latency.

Each preset is one PRESETS entry: the builder of its segment list, a
factor on both axles' peak grip D and the NoiseConfig values it sets.
NoiseConfig holds only what a preset varies (the seed, the IMU biases and
the outlier fraction); every other noise level is a module constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from radgrip import tire
from radgrip.core import (ImuSample, RadarExtrinsics, RadarPoint, RadarScan,
                          RangeError, ReferenceVelocity, SteeringSample,
                          TruthDivergenceError, VehicleConfig, event_time)
from radgrip.radar import body_projection, bearing_vectors, expected_doppler

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

# sensor noise: IMU white noise (Gaussian); points per scan (Gaussian);
# true bearings about the boresight (Cauchy: scene structure with heavy
# tails) and the Gaussian noise on the reported ones; Doppler noise (Cauchy:
# the outlier stimulus of the robust loss); processing latency (Gaussian,
# clipped at zero); SNR (uniform); the Doppler offset of an outlier point
IMU_ACCEL_STD = 0.012   # m/s^2
IMU_GYRO_STD = 0.0006   # rad/s
POINTS_MEAN = 30.0
POINTS_STD = 5.0
GAMMA_THETA = 0.25      # rad
GAMMA_PHI = 0.03
SIGMA_THETA = 0.005
SIGMA_PHI = 0.005
GAMMA_VD = 0.04         # m/s
LATENCY_MEAN = 0.090    # s
LATENCY_STD = 0.004
SNR_LO = 8.0            # dB
SNR_HI = 30.0
OUTLIER_OFFSET = 10.0   # m/s


@dataclass
class NoiseConfig:
    """The sensor-noise values a preset sets: the draw seed, the constant
    IMU biases and the fraction of radar points that are outliers."""

    seed: int = 0
    imu_accel_bias: tuple = (0.05, -0.04)
    imu_gyro_bias: float = 0.001
    outlier_frac: float = 0.0

    def validate(self) -> "NoiseConfig":
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


def double_lane_change(speed: float, cfg: VehicleConfig) -> list:
    """Segments of the ISO 3888-1 double-lane-change layout driven at the
    given speed.

    Section lengths follow the standard (15/30/25/25/15 m, 3.5 m offset)
    and are stretched linearly above a 25 m/s design speed so the required
    lateral acceleration stays inside the tire envelope.
    """
    scale = max(1.0, speed / 25.0)
    lengths = [15.0, 30.0, 25.0, 25.0, 15.0]
    durs = [L * scale / speed for L in lengths]
    wb = cfg.lf + cfg.lr
    return [
        Segment(durs[0], None, 0.0),
        Segment(durs[1], None,
                _sine_curvature_transition(3.5, durs[1], speed, wb)),
        Segment(durs[2], None, 0.0),
        Segment(durs[3], None,
                _sine_curvature_transition(-3.5, durs[3], speed, wb)),
        Segment(durs[4], None, 0.0),
    ]


def constant_radius(delta: float) -> list:
    """Steer ramped to delta over 1 s, then held for 6 s."""
    return [Segment(1.0, None, lambda t: delta * min(t, 1.0)),
            Segment(6.0, None, delta)]


def slalom(amplitude: float, freq: float, duration: float) -> list:
    """Sine steer whose amplitude ramps in over the first second."""
    def steer(t: float) -> float:
        return amplitude * min(t, 1.0) * math.sin(2.0 * math.pi * freq * t)
    return [Segment(duration, None, steer)]


def _with_launch(top_speed: float, accel_time: float, body: list) -> list:
    """Common scenario skeleton: 1.5 s standstill preamble, launch, 1 s
    settle, body."""
    return [Segment(1.5, 0.0, 0.0), Segment(accel_time, top_speed, 0.0),
            Segment(1.0, None, 0.0), *body]


# ---------------------------------------------------------------------------
# Truth simulation
# ---------------------------------------------------------------------------

@dataclass
class TruthTrajectory:
    """Dense truth signals on the DT_SIM grid (body-frame IMU-sense
    accelerations; axle forces and slip angles from the tire model)."""

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

    def index_at(self, t):
        """Index of the sample nearest to time t, clipped into the
        trajectory; an array of times gives an array of indices."""
        i = np.rint((np.asarray(t) - self.t[0]) / DT_SIM).astype(int)
        return np.clip(i, 0, len(self.t) - 1)


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
    Fy = np.zeros((n, 2))
    alpha = np.zeros((n, 2))
    p_axles = tire.axles(P_truth)

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
        alpha[i] = tire.slip_angles(vx_k, vy_k, r_k, d_k, cfg)
        ax_k = dvx[i] - r_k * vy_k
        Fy[i] = tire.vertical_loads(vx_k, ax_k, cfg) * \
            tire.magic_formula_values(tire.force_slip(alpha[i]), p_axles)
        Fyf_k, Fyr_k = Fy[i].tolist()
        ay_k = (Fyf_k * math.cos(d_k) + Fyr_k) / cfg.m
        vy_dot = ay_k - r_k * vx_k
        r_dot = (cfg.lf * Fyf_k * math.cos(d_k) - cfg.lr * Fyr_k) / cfg.Iz
        vy[i], r[i] = vy_k, r_k
        ax[i], ay[i] = ax_k, ay_k
        vy_k += vy_dot * DT_SIM
        r_k += r_dot * DT_SIM
        if abs(vy_k) > max(vx_k, _V_FLOOR):
            raise TruthDivergenceError(
                f"truth diverged at t={t[i]:.3f}s (|vy|={abs(vy_k):.2f} "
                f"> vx={vx_k:.2f})")
    return TruthTrajectory(t, vx_prof, vy, r, ax, ay, delta_prof,
                           *Fy.T, *alpha.T)


# ---------------------------------------------------------------------------
# Sensor synthesis
# ---------------------------------------------------------------------------

def _records(cls, *columns) -> tuple:
    """One cls record per row of the equal-length column arrays, with
    Python scalars as fields."""
    return tuple(map(cls, *(c.tolist() for c in columns)))


def gen_imu(truth: TruthTrajectory, noise: NoiseConfig,
            rng: np.random.Generator, g: float) -> tuple[ImuSample, ...]:
    """Sample the truth at IMU_RATE, adding white noise and the
    configured constant biases.  az/gx/gy carry the level-vehicle values:
    gravity g and no roll or pitch rate."""
    ts = np.arange(int(math.floor(truth.t[-1] * IMU_RATE)) + 1) / IMU_RATE
    i = truth.index_at(ts)
    bx, by = noise.imu_accel_bias
    na = rng.normal(0.0, 1.0, size=(len(ts), 3)) * IMU_ACCEL_STD
    ng = rng.normal(0.0, 1.0, size=(len(ts), 3)) * IMU_GYRO_STD
    return _records(ImuSample, ts, truth.ax[i] + bx + na[:, 0],
                    truth.ay[i] + by + na[:, 1],
                    truth.r[i] + noise.imu_gyro_bias + ng[:, 2],
                    g + na[:, 2], ng[:, 0], ng[:, 1])


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

    True Doppler is radar.expected_doppler on the exact bearings; the
    reported bearings carry Gaussian noise, the Doppler is wrapped at the
    Nyquist velocity, and arrival is delayed by the drawn processing
    latency.
    """
    i = truth.index_at(t_capture)
    x = np.array([truth.vx[i], truth.vy[i], truth.r[i]])
    n_pts = max(0, int(round(rng.normal(POINTS_MEAN, POINTS_STD))))
    theta = np.clip(GAMMA_THETA * rng.standard_cauchy(n_pts),
                    -ext.fov_azimuth, ext.fov_azimuth)
    phi = np.clip(GAMMA_PHI * rng.standard_cauchy(n_pts),
                  -ext.fov_elevation, ext.fov_elevation)
    b = bearing_vectors(theta, phi)
    cx, cy, lever = body_projection(ext, b)
    v_true = expected_doppler(x, cx, cy, lever)
    out_u = rng.uniform(0.0, 1.0, n_pts)
    v_true = np.where(out_u < noise.outlier_frac,
                      v_true + OUTLIER_OFFSET, v_true)
    n_vd = GAMMA_VD * rng.standard_cauchy(n_pts)
    v_d = wrap(v_true + n_vd, ext.nyquist)
    theta_hat = np.clip(theta + rng.normal(0.0, 1.0, n_pts) * SIGMA_THETA,
                        -ext.fov_azimuth, ext.fov_azimuth)
    phi_hat = np.clip(phi + rng.normal(0.0, 1.0, n_pts) * SIGMA_PHI,
                      -ext.fov_elevation, ext.fov_elevation)
    snr = rng.uniform(SNR_LO, SNR_HI, n_pts)
    rng_m = rng.uniform(5.0, 120.0, n_pts)
    latency = max(0.0, rng.normal(LATENCY_MEAN, LATENCY_STD))
    points = _records(RadarPoint, rng_m, theta_hat, phi_hat, v_d, snr)
    return RadarScan(radar_id, float(t_capture), float(t_capture + latency),
                     points)


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
    events.extend(gen_imu(truth, noise, rng, cfg.g))
    t_end = truth.t[-1]
    ts = np.arange(int(math.floor(t_end * STEER_RATE)) + 1) / STEER_RATE
    events.extend(_records(SteeringSample, ts,
                           truth.delta[truth.index_at(ts)]))
    ts = np.arange(int(math.floor(t_end * REF_RATE)) + 1) / REF_RATE
    i = truth.index_at(ts)
    events.extend(_records(ReferenceVelocity, ts, truth.vx[i], truth.vy[i]))
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


@dataclass
class ScenarioSpec:
    script: ManeuverScript
    p_truth: np.ndarray
    noise: NoiseConfig


def _fitlap_body() -> list:
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


def _dlc65(cfg: VehicleConfig) -> list:
    return _with_launch(65.0, 5.0, double_lane_change(65.0, cfg)
                        + [Segment(1.5, None, 0.0)])


# name -> (segment list of cfg, factor on both axles' peak D, NoiseConfig
# values); every preset starts at rest
PRESETS = {
    "standstill": (lambda cfg: [Segment(3.0, 0.0, 0.0)], 1.0,
                   {"imu_accel_bias": (0.15, 0.15), "imu_gyro_bias": 0.008}),
    "dlc65": (_dlc65, 1.0, {}),
    "dlc65_outliers": (_dlc65, 1.0, {"outlier_frac": 0.2}),
    "const_radius": (lambda cfg: _with_launch(30.0, 3.0,
                                              constant_radius(0.035)),
                     1.0, {}),
    "slalom": (lambda cfg: _with_launch(25.0, 2.5, slalom(0.05, 0.5, 6.0)),
               1.0, {}),
    "brake_turn": (lambda cfg: _with_launch(55.0, 4.5, [
        Segment(2.0, None, 0.0),
        Segment(2.0, 25.0, 0.0),
        Segment(3.0, None, lambda t: 0.06 * min(t, 1.0)),
        Segment(1.5, None, 0.0),
    ]), 0.65, {}),
    "fitlap": (lambda cfg: _with_launch(40.0, 4.0, _fitlap_body()), 1.0, {}),
}


def make_scenario(name: str, cfg: VehicleConfig,
                  seed: int = 0) -> ScenarioSpec:
    """Build one of the PRESETS; raises KeyError for unknown names."""
    segments, grip, noise = PRESETS[name]
    p = P_TRUTH_DEFAULT.copy()
    tire.axles(p)[:, 2] *= grip
    return ScenarioSpec(ManeuverScript(name, 0.0, segments(cfg)), p,
                        NoiseConfig(seed=seed, **noise))
