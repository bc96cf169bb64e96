"""Domain types, configuration handling and the JSONL sensor-log data model.

All value types in this module are plain immutable records; they carry no
behaviour beyond conversion helpers and are safe to hand between threads.
Timestamps are seconds as float64 in a single monotonic clock domain.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
import yaml


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class EstimatorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EstimatorError):
    """A log line is not valid JSON."""


class SchemaError(EstimatorError):
    """A log record or config entry is missing or mistypes a required field."""


class RangeError(EstimatorError):
    """A numeric field is NaN, infinite, or outside its admissible range."""


class ConfigError(EstimatorError):
    """A configuration invariant is violated; the message names the field."""


class NumericError(EstimatorError):
    """A non-finite value appeared where finite arithmetic was required."""


class WindowOrderError(EstimatorError):
    """State timestamps in a window would become non-monotone."""


class InsufficientDataError(EstimatorError):
    """Not enough samples to run the requested computation."""


class StaleScanError(EstimatorError):
    """A radar scan was captured before the current window begins."""


class StaleEventError(EstimatorError):
    """An event predates the current window and was dropped."""


class TruthDivergenceError(EstimatorError):
    """The truth simulation left its domain of validity."""


class UsageError(EstimatorError):
    """Bad command-line usage."""


class IoError(EstimatorError):
    """A file could not be read or written."""


class AlignmentError(EstimatorError):
    """Two time series have no overlapping samples to compare."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputSample:
    """Measured inputs governing one integration interval.

    ax_meas, ay_meas are raw IMU accelerations (m/s^2), r_meas the raw yaw
    rate (rad/s) and delta the road-wheel steering angle (rad).
    """

    t: float
    ax_meas: float
    ay_meas: float
    r_meas: float
    delta: float


@dataclass(frozen=True)
class PacejkaAxleParams:
    """Macro-parameters of the lateral tire curve for one axle.

    D is normalized (force per unit vertical load); Sh is in rad.
    """

    B: float
    C: float
    D: float
    E: float
    Sh: float
    Sv: float

    def as_array(self) -> np.ndarray:
        return np.array([self.B, self.C, self.D, self.E, self.Sh, self.Sv])

    @staticmethod
    def from_array(a) -> "PacejkaAxleParams":
        return PacejkaAxleParams(*(float(v) for v in a))


@dataclass(frozen=True)
class TireParamSet:
    front: PacejkaAxleParams
    rear: PacejkaAxleParams

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.front.as_array(), self.rear.as_array()])

    @staticmethod
    def from_array(a) -> "TireParamSet":
        a = np.asarray(a, dtype=float)
        return TireParamSet(PacejkaAxleParams.from_array(a[:6]),
                            PacejkaAxleParams.from_array(a[6:12]))


@dataclass(frozen=True)
class RadarPoint:
    """One polar radar return with apparent (possibly aliased) Doppler."""

    range: float
    azimuth: float
    elevation: float
    doppler: float
    snr: float


@dataclass(frozen=True)
class RadarScan:
    radar_id: int
    t_capture: float
    t_receive: float
    points: tuple


@dataclass
class RadarExtrinsics:
    """Mounting of one radar: body-from-radar rotation, lever arm, limits."""

    rotation: np.ndarray        # 3x3, body <- radar
    translation: np.ndarray     # radar position in body frame (m)
    nyquist: float              # V_N (m/s)
    fov_azimuth: float = 0.8    # half-angle (rad)
    fov_elevation: float = 0.2  # half-angle (rad)


@dataclass(frozen=True)
class ImuSample:
    """IMU event.  az/gx/gy are optional 3-axis channels; only az is
    consumed (standstill detection and attitude), and an absent az
    defaults to a level vehicle (az = g)."""

    t: float
    ax: float
    ay: float
    r: float
    az: float | None = None
    gx: float | None = None
    gy: float | None = None


@dataclass(frozen=True)
class SteeringSample:
    t: float
    delta: float


@dataclass(frozen=True)
class ReferenceVelocity:
    """Optical-reference velocity channel, logged for metrics only."""

    t: float
    vx_ref: float
    vy_ref: float


SensorEvent = Union[ImuSample, SteeringSample, RadarScan, ReferenceVelocity]


def event_time(ev: SensorEvent) -> float:
    """Replay-order key: arrival time for radar, sample time otherwise."""
    if isinstance(ev, RadarScan):
        return ev.t_receive
    return ev.t


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class Thresholds:
    V_min: float = 0.5          # standstill speed threshold (m/s)
    A_min: float = 0.2          # standstill accel threshold (m/s^2)
    T_stop: float = 1.0         # required standstill duration (s)
    snr_min: float = 10.0       # radar SNR gate (dB)
    dV_r_max: float = 3.0       # Doppler innovation gate (m/s)
    V_Fy_min: float = 5.0       # lateral-force / slip-angle speed gate (m/s)
    dTw: float = 0.150          # max window span (s)
    dt: float = 0.010           # state grid step (s)
    watchdog_period: float = 0.100  # max radar silence before a solve (s)


@dataclass
class Covariances:
    """Diagonal covariances as variance vectors; Sigma_w is the process
    variance per nominal dt step and scales linearly with the actual
    sub-interval length."""

    Sigma_x0: np.ndarray = None
    Sigma_P: np.ndarray = None
    Sigma_w: np.ndarray = None
    Sigma_zv: np.ndarray = None
    sigma_doppler: float = 0.2
    Sigma_Fy: np.ndarray = None

    def __post_init__(self):
        if self.Sigma_x0 is None:
            self.Sigma_x0 = np.array(
                [0.25, 0.25, 1e-2, 2.25e-4, 2.25e-4, 2.5e-7])
        if self.Sigma_P is None:
            per_axle = [0.16, 2.5e-3, 4e-4, 1e-2, 9e-6, 1e-4]
            self.Sigma_P = np.array(per_axle + per_axle)
        if self.Sigma_w is None:
            self.Sigma_w = np.array(
                [1.6e-7, 1.6e-7, 1e-6, 1e-10, 1e-10, 1e-12])
        if self.Sigma_zv is None:
            self.Sigma_zv = np.array([1e-4, 1e-4, 1e-6, 4e-4, 4e-4, 1e-6])
        if self.Sigma_Fy is None:
            self.Sigma_Fy = np.array([9e4, 9e4])
        for name in ("Sigma_x0", "Sigma_P", "Sigma_w", "Sigma_zv", "Sigma_Fy"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass
class ParamBounds:
    P_min: np.ndarray = None
    P_max: np.ndarray = None

    def __post_init__(self):
        if self.P_min is None:
            self.P_min = np.array([1.0, 0.5, 0.5, -5.0, -0.1, -0.5])
        if self.P_max is None:
            self.P_max = np.array([40.0, 4.0, 4.0, 1.0, 0.1, 0.5])
        self.P_min = np.asarray(self.P_min, dtype=float)
        self.P_max = np.asarray(self.P_max, dtype=float)

    def full_min(self) -> np.ndarray:
        return np.concatenate([self.P_min, self.P_min])

    def full_max(self) -> np.ndarray:
        return np.concatenate([self.P_max, self.P_max])


@dataclass
class SolverCfg:
    max_iterations: int = 3
    max_time: float = 0.008         # wall-clock cap per solve (s)
    lm_lambda_init: float = 1e-4
    gradient_tol: float = 1e-9
    step_tol: float = 1e-12
    cauchy_scale: float = 1.0       # on whitened Doppler residuals


@dataclass
class VehicleConfig:
    """Masses, geometry, aero, sensor extrinsics and estimator tuning."""

    m: float = 800.0
    lf: float = 1.6
    lr: float = 1.4
    hg: float = 0.3
    g: float = 9.81
    rho: float = 1.2
    A: float = 1.0
    Czf: float = 1.9
    Czr: float = 2.3
    Iz: float = 1000.0              # truth simulator only
    steering_ratio: float = 1.0     # column angle / road-wheel angle
    delta_max: float = 0.5
    initial_biases: np.ndarray = None
    initial_params: TireParamSet = None
    assume_level_standstill: bool = True
    radars: list = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    covariances: Covariances = field(default_factory=Covariances)
    bounds: ParamBounds = field(default_factory=ParamBounds)
    solver: SolverCfg = field(default_factory=SolverCfg)

    def __post_init__(self):
        if self.initial_biases is None:
            self.initial_biases = np.zeros(3)
        self.initial_biases = np.asarray(self.initial_biases, dtype=float)
        if self.initial_params is None:
            nominal = PacejkaAxleParams(9.0, 1.5, 0.8, 0.0, 0.0, 0.0)
            self.initial_params = TireParamSet(nominal, nominal)
        if self.radars is None:
            self.radars = _default_radars()


def _rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _default_radars() -> list:
    return [
        RadarExtrinsics(_rot_z(0.0), np.array([2.0, 0.0, 0.2]), 26.5),
        RadarExtrinsics(_rot_z(math.pi / 2), np.array([0.5, 0.8, 0.3]), 26.5),
        RadarExtrinsics(_rot_z(-math.pi / 2), np.array([0.5, -0.8, 0.3]), 26.5),
    ]


def default_config() -> VehicleConfig:
    return validate_config(VehicleConfig())


# ---------------------------------------------------------------------------
# Config file I/O
# ---------------------------------------------------------------------------

_COV_KEYS = ("Sigma_x0", "Sigma_P", "Sigma_w", "Sigma_zv", "Sigma_Fy")


def load_config(path: str | None) -> VehicleConfig:
    """Load a YAML config file, overlaying the documented defaults.

    Only keys present in the file are overridden; the accepted keys are
    those of apply_config_dict, and the defaults and units are those of the
    VehicleConfig, Thresholds, Covariances, ParamBounds and SolverCfg
    dataclasses above.  ``path=None`` returns the defaults.
    """
    cfg = VehicleConfig()
    if path is None:
        return validate_config(cfg)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise IoError(f"cannot read config file {path!r}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path!r}: {e}") from e
    if raw is None:
        return validate_config(cfg)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return validate_config(apply_config_dict(cfg, raw))


def apply_config_dict(cfg: VehicleConfig, raw: dict) -> VehicleConfig:
    """Overlay a parsed config mapping onto ``cfg`` (returns ``cfg``)."""
    scalar_keys = {
        "m", "lf", "lr", "hg", "g", "rho", "A", "Czf", "Czr", "Iz",
        "steering_ratio", "delta_max", "assume_level_standstill",
    }
    for key, val in raw.items():
        if key in scalar_keys:
            setattr(cfg, key, val)
        elif key == "initial_biases":
            cfg.initial_biases = np.asarray(val, dtype=float)
        elif key == "initial_params":
            cfg.initial_params = _params_from_dict(val)
        elif key == "radars":
            cfg.radars = [_radar_from_dict(i, d) for i, d in enumerate(val)]
        elif key == "thresholds":
            _overlay(cfg.thresholds, val, "thresholds")
        elif key == "covariances":
            for k, v in val.items():
                if k in _COV_KEYS:
                    setattr(cfg.covariances, k, np.asarray(v, dtype=float))
                elif k == "sigma_doppler":
                    cfg.covariances.sigma_doppler = float(v)
                else:
                    raise ConfigError(f"covariances.{k}")
        elif key == "bounds":
            for k, v in val.items():
                if k in ("P_min", "P_max"):
                    setattr(cfg.bounds, k, np.asarray(v, dtype=float))
                else:
                    raise ConfigError(f"bounds.{k}")
        elif key == "solver":
            _overlay(cfg.solver, val, "solver")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return cfg


def _overlay(obj, mapping: dict, section: str) -> None:
    for k, v in mapping.items():
        if not hasattr(obj, k):
            raise ConfigError(f"{section}.{k}")
        setattr(obj, k, type(getattr(obj, k))(v))


def _params_from_dict(val) -> TireParamSet:
    def axle(d):
        if isinstance(d, dict):
            return PacejkaAxleParams(**{k: float(v) for k, v in d.items()})
        return PacejkaAxleParams.from_array(d)
    try:
        return TireParamSet(axle(val["front"]), axle(val["rear"]))
    except (KeyError, TypeError) as e:
        raise ConfigError(f"initial_params: {e}") from e


def _radar_from_dict(i: int, d: dict) -> RadarExtrinsics:
    try:
        rot = np.asarray(d["rotation"], dtype=float)
        trans = np.asarray(d["translation"], dtype=float)
        ext = RadarExtrinsics(rot, trans, float(d["nyquist"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"radars[{i}]: {e}") from e
    if "fov_azimuth" in d:
        ext.fov_azimuth = float(d["fov_azimuth"])
    if "fov_elevation" in d:
        ext.fov_elevation = float(d["fov_elevation"])
    return ext


def config_to_dict(cfg: VehicleConfig) -> dict:
    """Plain-data rendering of a config, used for hashing and manifests."""
    return {
        "m": cfg.m, "lf": cfg.lf, "lr": cfg.lr, "hg": cfg.hg, "g": cfg.g,
        "rho": cfg.rho, "A": cfg.A, "Czf": cfg.Czf, "Czr": cfg.Czr,
        "Iz": cfg.Iz, "steering_ratio": cfg.steering_ratio,
        "delta_max": cfg.delta_max,
        "assume_level_standstill": cfg.assume_level_standstill,
        "initial_biases": cfg.initial_biases.tolist(),
        "initial_params": {
            "front": cfg.initial_params.front.as_array().tolist(),
            "rear": cfg.initial_params.rear.as_array().tolist(),
        },
        "radars": [
            {
                "rotation": r.rotation.tolist(),
                "translation": r.translation.tolist(),
                "nyquist": r.nyquist,
                "fov_azimuth": r.fov_azimuth,
                "fov_elevation": r.fov_elevation,
            }
            for r in cfg.radars
        ],
        "thresholds": vars(cfg.thresholds).copy(),
        "covariances": {
            **{k: getattr(cfg.covariances, k).tolist() for k in _COV_KEYS},
            "sigma_doppler": cfg.covariances.sigma_doppler,
        },
        "bounds": {
            "P_min": cfg.bounds.P_min.tolist(),
            "P_max": cfg.bounds.P_max.tolist(),
        },
        "solver": vars(cfg.solver).copy(),
    }


def config_hash(cfg: VehicleConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def validate_config(cfg: VehicleConfig) -> VehicleConfig:
    """Check every config invariant; raises ConfigError naming the field.

    Rotation matrices within 1e-6 of orthonormal are re-orthonormalized.
    """
    for name in ("m", "lf", "lr", "hg", "g"):
        v = getattr(cfg, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ConfigError(name)
    for name in ("rho", "A", "Czf", "Czr", "Iz", "steering_ratio",
                 "delta_max"):
        v = getattr(cfg, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ConfigError(name)
    th = cfg.thresholds
    if not (th.dt > 0 and math.isfinite(th.dt)):
        raise ConfigError("thresholds.dt")
    if not (th.dTw > 0 and math.isfinite(th.dTw)):
        raise ConfigError("thresholds.dTw")
    if th.dTw < th.dt:
        raise ConfigError("thresholds.dTw")
    for name in ("V_min", "A_min", "T_stop", "dV_r_max", "V_Fy_min",
                 "watchdog_period"):
        v = getattr(th, name)
        if not (math.isfinite(v) and v > 0):
            raise ConfigError(f"thresholds.{name}")
    cov = cfg.covariances
    shapes = {"Sigma_x0": 6, "Sigma_P": 12, "Sigma_w": 6, "Sigma_zv": 6,
              "Sigma_Fy": 2}
    for name, n in shapes.items():
        arr = getattr(cov, name)
        if arr.shape != (n,):
            raise ConfigError(f"covariances.{name}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ConfigError(f"covariances.{name}")
    if not (math.isfinite(cov.sigma_doppler) and cov.sigma_doppler > 0):
        raise ConfigError("covariances.sigma_doppler")
    b = cfg.bounds
    if b.P_min.shape != (6,) or b.P_max.shape != (6,):
        raise ConfigError("bounds")
    if np.any(b.P_min > b.P_max):
        raise ConfigError("bounds.P_min")
    if cfg.initial_biases.shape != (3,) or not np.all(
            np.isfinite(cfg.initial_biases)):
        raise ConfigError("initial_biases")
    for axle_name, p in (("front", cfg.initial_params.front),
                         ("rear", cfg.initial_params.rear)):
        pa = p.as_array()
        if not np.all(np.isfinite(pa)):
            raise ConfigError(f"initial_params.{axle_name}")
    s = cfg.solver
    if s.max_iterations < 1:
        raise ConfigError("solver.max_iterations")
    if not (s.max_time > 0):
        raise ConfigError("solver.max_time")
    if not cfg.radars:
        raise ConfigError("radars")
    for i, ext in enumerate(cfg.radars):
        ext.rotation = np.asarray(ext.rotation, dtype=float)
        ext.translation = np.asarray(ext.translation, dtype=float)
        if ext.rotation.shape != (3, 3):
            raise ConfigError(f"radars[{i}].rotation")
        err = np.abs(ext.rotation @ ext.rotation.T - np.eye(3)).max()
        det = np.linalg.det(ext.rotation)
        if err > 1e-6 or det < 0.5:
            raise ConfigError(f"radars[{i}].rotation")
        if err > 1e-12:
            u, _, vt = np.linalg.svd(ext.rotation)
            ext.rotation = u @ vt
        if ext.translation.shape != (3,) or not np.all(
                np.isfinite(ext.translation)):
            raise ConfigError(f"radars[{i}].translation")
        if not (math.isfinite(ext.nyquist) and ext.nyquist > 0):
            raise ConfigError(f"radars[{i}].nyquist")
        if ext.fov_azimuth <= 0 or ext.fov_elevation <= 0:
            raise ConfigError(f"radars[{i}].fov")
    return cfg


# ---------------------------------------------------------------------------
# JSONL sensor-log model
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise RangeError(f"non-finite JSON constant {token!r}")


def _require_num(rec: dict, key: str, kind: str) -> float:
    if key not in rec:
        raise SchemaError(f"{kind} record missing field {key!r}")
    v = rec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{kind} field {key!r} is not a number")
    v = float(v)
    if not math.isfinite(v):
        raise RangeError(f"{kind} field {key!r} is not finite")
    return v


def _optional_num(rec: dict, key: str, kind: str) -> float | None:
    if key not in rec or rec[key] is None:
        return None
    return _require_num(rec, key, kind)


def parse_event(line: str) -> SensorEvent:
    """Decode one JSONL log record into its sensor event.

    Unknown fields are ignored.  Malformed JSON raises ParseError, missing
    or mistyped fields SchemaError, non-finite numbers RangeError.
    """
    try:
        rec = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(rec, dict):
        raise SchemaError("record is not a JSON object")
    etype = rec.get("type")
    if etype == "imu":
        return ImuSample(
            t=_require_num(rec, "t", "imu"),
            ax=_require_num(rec, "ax", "imu"),
            ay=_require_num(rec, "ay", "imu"),
            r=_require_num(rec, "r", "imu"),
            az=_optional_num(rec, "az", "imu"),
            gx=_optional_num(rec, "gx", "imu"),
            gy=_optional_num(rec, "gy", "imu"),
        )
    if etype == "steering":
        return SteeringSample(
            t=_require_num(rec, "t", "steering"),
            delta=_require_num(rec, "delta", "steering"),
        )
    if etype == "radar":
        rid = rec.get("radar_id")
        if isinstance(rid, bool) or not isinstance(rid, int):
            raise SchemaError("radar record missing integer 'radar_id'")
        t_cap = _require_num(rec, "t_capture", "radar")
        t_rec = _require_num(rec, "t_receive", "radar")
        if t_rec < t_cap:
            raise RangeError("radar t_receive precedes t_capture")
        pts_raw = rec.get("points")
        if not isinstance(pts_raw, list):
            raise SchemaError("radar record missing 'points' list")
        points = []
        for i, p in enumerate(pts_raw):
            if not isinstance(p, list) or len(p) != 5:
                raise SchemaError(
                    f"radar point {i} must be [range,azimuth,elevation,"
                    f"doppler,snr]")
            vals = []
            for j, v in enumerate(p):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise SchemaError(f"radar point {i}[{j}] is not a number")
                v = float(v)
                if not math.isfinite(v):
                    raise RangeError(f"radar point {i}[{j}] is not finite")
                vals.append(v)
            if vals[0] < 0:
                raise RangeError(f"radar point {i} has negative range")
            points.append(RadarPoint(*vals))
        return RadarScan(rid, t_cap, t_rec, tuple(points))
    if etype == "ref_vel":
        return ReferenceVelocity(
            t=_require_num(rec, "t", "ref_vel"),
            vx_ref=_require_num(rec, "vx_ref", "ref_vel"),
            vy_ref=_require_num(rec, "vy_ref", "ref_vel"),
        )
    raise SchemaError(f"unknown record type {etype!r}")


def serialize_event(ev: SensorEvent) -> str:
    """Encode an event as one JSONL line (inverse of parse_event)."""
    if isinstance(ev, ImuSample):
        rec = {"type": "imu", "t": ev.t, "ax": ev.ax, "ay": ev.ay, "r": ev.r}
        for key in ("az", "gx", "gy"):
            v = getattr(ev, key)
            if v is not None:
                rec[key] = v
    elif isinstance(ev, SteeringSample):
        rec = {"type": "steering", "t": ev.t, "delta": ev.delta}
    elif isinstance(ev, RadarScan):
        rec = {
            "type": "radar",
            "radar_id": ev.radar_id,
            "t_capture": ev.t_capture,
            "t_receive": ev.t_receive,
            "points": [[p.range, p.azimuth, p.elevation, p.doppler, p.snr]
                       for p in ev.points],
        }
    elif isinstance(ev, ReferenceVelocity):
        rec = {"type": "ref_vel", "t": ev.t, "vx_ref": ev.vx_ref,
               "vy_ref": ev.vy_ref}
    else:
        raise SchemaError(f"cannot serialize {type(ev).__name__}")
    return json.dumps(rec, separators=(",", ":"))


ESTIMATE_CSV_HEADER = ("t,vx,vy,r,bx,by,br,alpha_f,alpha_r,Fyf,Fyr,"
                       "BCD_f,BCD_r,beta")

TRUTH_CSV_HEADER = "t,vx,vy,r,ax,ay,delta,Fyf,Fyr,alpha_f,alpha_r"
