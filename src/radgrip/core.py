"""Domain types, configuration handling and the JSONL sensor-log data model.

All value types in this module are plain immutable records; they carry no
behaviour beyond conversion helpers and are safe to hand between threads.
Timestamps are seconds as float64 in a single monotonic clock domain.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

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
    """A log record is missing or mistypes a required field."""


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

def _vector(*values: float):
    """A dataclass field defaulting to a fresh float array of ``values``."""
    return field(default_factory=lambda: np.array(values, dtype=float))


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

    Sigma_x0: np.ndarray = _vector(0.25, 0.25, 1e-2, 2.25e-4, 2.25e-4, 2.5e-7)
    Sigma_P: np.ndarray = _vector(*2 * (0.16, 2.5e-3, 4e-4, 1e-2, 9e-6, 1e-4))
    Sigma_w: np.ndarray = _vector(1.6e-7, 1.6e-7, 1e-6, 1e-10, 1e-10, 1e-12)
    Sigma_zv: np.ndarray = _vector(1e-4, 1e-4, 1e-6, 4e-4, 4e-4, 1e-6)
    sigma_doppler: float = 0.2
    Sigma_Fy: np.ndarray = _vector(9e4, 9e4)


@dataclass
class ParamBounds:
    """Box on one axle's [B, C, D, E, Sh, Sv], applied to both axles."""

    P_min: np.ndarray = _vector(1.0, 0.5, 0.5, -5.0, -0.1, -0.5)
    P_max: np.ndarray = _vector(40.0, 4.0, 4.0, 1.0, 0.1, 0.5)

    def full_min(self) -> np.ndarray:
        return np.concatenate([self.P_min, self.P_min])

    def full_max(self) -> np.ndarray:
        return np.concatenate([self.P_max, self.P_max])


@dataclass
class SolverCfg:
    """At most max_iterations Gauss-Newton steps per window solve (one is
    the iterated-EKF update): the work per solve is bounded by construction."""

    max_iterations: int = 1
    cauchy_scale: float = 1.0       # on whitened Doppler residuals


def _rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _default_radars() -> list:
    return [
        RadarExtrinsics(_rot_z(0.0), np.array([2.0, 0.0, 0.2]), 26.5),
        RadarExtrinsics(_rot_z(math.pi / 2), np.array([0.5, 0.8, 0.3]), 26.5),
        RadarExtrinsics(_rot_z(-math.pi / 2), np.array([0.5, -0.8, 0.3]), 26.5),
    ]


@dataclass
class VehicleConfig:
    """Masses, geometry, aero, sensor extrinsics and estimator tuning.

    initial_params is the tire-parameter prior [B, C, D, E, Sh, Sv] of the
    front axle, then of the rear: D is normalized (force per unit vertical
    load) and Sh is in rad.
    """

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
    initial_biases: np.ndarray = _vector(0.0, 0.0, 0.0)
    initial_params: np.ndarray = _vector(*2 * (9.0, 1.5, 0.8, 0.0, 0.0, 0.0))
    assume_level_standstill: bool = True
    radars: list[RadarExtrinsics] = field(default_factory=_default_radars)
    thresholds: Thresholds = field(default_factory=Thresholds)
    covariances: Covariances = field(default_factory=Covariances)
    bounds: ParamBounds = field(default_factory=ParamBounds)
    solver: SolverCfg = field(default_factory=SolverCfg)


def default_config() -> VehicleConfig:
    return validate_config(VehicleConfig())


# ---------------------------------------------------------------------------
# Config file I/O
# ---------------------------------------------------------------------------

def load_config(path: str | None) -> VehicleConfig:
    """Load a YAML config file, overlaying the documented defaults.

    The accepted keys are the fields of VehicleConfig and of its nested
    dataclasses, which hold the defaults and units; radars is a list of
    RadarExtrinsics mappings.  Only keys present in the file are
    overridden.  Malformed input raises ConfigError naming the dotted
    path.  Numbers are never read from strings: YAML reads 1e-9 as a
    string, so write 1.0e-9.  ``path=None`` returns the defaults.
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
    return validate_config(apply_config_dict(cfg, {} if raw is None else raw))


def apply_config_dict(cfg, raw, path: str = ""):
    """Overlay a parsed config mapping onto the dataclass ``cfg`` in place
    and return it.  Every key must name a field; a dataclass field takes a
    mapping, overlaid recursively, and any other value is converted to the
    field's annotated type.  ConfigError names the dotted path of a bad
    key or value (``path`` prefixes it)."""
    for key, val, typ, name in _entries(type(cfg), raw, path):
        current = getattr(cfg, key)
        if is_dataclass(current):
            apply_config_dict(current, val, name)
        else:
            setattr(cfg, key, _convert(val, typ, name))
    return cfg


def _entries(cls, raw, path: str):
    """(field, value, annotated type, dotted name) for each entry of the
    mapping ``raw`` of fields of dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'}: expected a mapping, "
                          f"got {raw!r}")
    hints = get_type_hints(cls)
    types = {f.name: hints[f.name] for f in fields(cls)}
    for key, val in raw.items():
        name = f"{path}.{key}" if path else str(key)
        if key not in types:
            raise ConfigError(f"{name}: unknown config key")
        yield key, val, types[key], name


def _convert(val, typ, name: str):
    """``val`` as a value of the field type ``typ``: a bool must be a YAML
    bool, an int integral, and numbers and arrays are never strings."""
    if get_origin(typ) is list:
        if not isinstance(val, list):
            raise ConfigError(f"{name}: expected a list, got {val!r}")
        (item,) = get_args(typ)
        return [_build(item, v, f"{name}[{i}]") for i, v in enumerate(val)]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    try:
        if typ is np.ndarray:
            arr = np.asarray(val)           # ValueError when ragged
            if arr.dtype.kind in "iuf":
                return arr.astype(float)
        elif typ is bool and isinstance(val, bool):
            return val
        elif typ is int and number and val == int(val):
            return int(val)
        elif typ is float and number:
            return float(val)               # OverflowError past 1.8e308
    except (ValueError, OverflowError):
        pass
    expected = {np.ndarray: "a list of numbers", bool: "true or false",
                int: "an integer", float: "a number"}[typ]
    raise ConfigError(f"{name}: expected {expected}, got {val!r}")


def _build(cls, raw, path: str):
    """A new ``cls`` from a mapping that gives every field lacking a
    default."""
    values = {key: _convert(val, typ, name)
              for key, val, typ, name in _entries(cls, raw, path)}
    for f in fields(cls):
        if (f.name not in values and f.default is MISSING
                and f.default_factory is MISSING):
            raise ConfigError(f"{path}.{f.name}: missing")
    return cls(**values)


def config_to_dict(cfg):
    """Plain-data rendering of a config, used for hashing, manifests and
    as a config file: a dataclass becomes a dict of its fields, an array
    or a list a list."""
    if is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name))
                for f in fields(cfg)}
    if isinstance(cfg, np.ndarray):
        return cfg.tolist()
    if isinstance(cfg, list):
        return [config_to_dict(v) for v in cfg]
    return cfg


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
    if not math.isfinite(th.snr_min):
        raise ConfigError("thresholds.snr_min")
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
    for name in ("P_min", "P_max"):
        arr = getattr(b, name)
        if arr.shape != (6,) or not np.all(np.isfinite(arr)):
            raise ConfigError(f"bounds.{name}")
    if np.any(b.P_min > b.P_max):
        raise ConfigError("bounds.P_min")
    if cfg.initial_biases.shape != (3,) or not np.all(
            np.isfinite(cfg.initial_biases)):
        raise ConfigError("initial_biases")
    if cfg.initial_params.shape != (12,) or not np.all(
            np.isfinite(cfg.initial_params)):
        raise ConfigError("initial_params")
    s = cfg.solver
    if s.max_iterations < 1:
        raise ConfigError("solver.max_iterations")
    if not (math.isfinite(s.cauchy_scale) and s.cauchy_scale > 0):
        raise ConfigError("solver.cauchy_scale")
    if not cfg.radars:
        raise ConfigError("radars")
    for i, ext in enumerate(cfg.radars):
        if ext.rotation.shape != (3, 3) or not np.all(
                np.isfinite(ext.rotation)):
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
        for fov in (ext.fov_azimuth, ext.fov_elevation):
            if not (math.isfinite(fov) and fov > 0):
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
