"""Domain types, configuration handling and the JSONL sensor-log data model.

Each record's fields are stated once.  Log records are NamedTuples in
JSONL field order, read and written through their _fields; config records
are dataclasses, whose fields and their metadata state the config rules.
One walk over those fields converts and checks a config, whether read
from a YAML file (load_config) or built in code (validate_config, which
returns a checked copy).  Log records carry no behaviour and are safe to
hand between threads.  Timestamps are seconds as float64 in a single
monotonic clock domain.
"""

# no `from __future__ import annotations`: the config walk reads the
# evaluated type of each dataclass field
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import NamedTuple, Union, get_args, get_origin

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


class InsufficientDataError(EstimatorError):
    """Not enough samples to run the requested computation."""


class TruthDivergenceError(EstimatorError):
    """The truth simulation left its domain of validity."""


class UsageError(EstimatorError):
    """Bad command-line usage."""


class IoError(EstimatorError):
    """A file could not be read or written."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class RadarPoint(NamedTuple):
    """One polar radar return with apparent (possibly aliased) Doppler."""

    range: float
    azimuth: float
    elevation: float
    doppler: float
    snr: float


class RadarScan(NamedTuple):
    radar_id: int
    t_capture: float
    t_receive: float
    points: tuple


_POSITIVE = {"positive": True}     # field metadata: the loader wants > 0


def _positive(default: float):
    """A dataclass field defaulting to ``default`` that must be > 0."""
    return field(default=default, metadata=_POSITIVE)


def _vector(*values: float, positive: bool = False):
    """A dataclass field defaulting to a fresh float array of ``values``,
    each > 0 if ``positive``; the loader keeps arrays at that length."""
    return field(default_factory=lambda: np.array(values, dtype=float),
                 metadata={"shape": (len(values),), "positive": positive})


@dataclass
class RadarExtrinsics:
    """Mounting of one radar: body-from-radar rotation, lever arm, limits."""

    rotation: np.ndarray = field(metadata={"shape": (3, 3)})  # body <- radar
    translation: np.ndarray = field(metadata={"shape": (3,)})  # body frame (m)
    nyquist: float = field(metadata=_POSITIVE)     # V_N (m/s)
    fov_azimuth: float = _positive(0.8)     # half-angle (rad)
    fov_elevation: float = _positive(0.2)   # half-angle (rad)


class ImuSample(NamedTuple):
    """IMU event.  az/gx/gy are optional 3-axis channels: az feeds the
    standstill detector only, an absent az counting as a level vehicle
    (az = g), and gx/gy are not read."""

    t: float
    ax: float
    ay: float
    r: float
    az: float | None = None
    gx: float | None = None
    gy: float | None = None


class SteeringSample(NamedTuple):
    t: float
    delta: float


class ReferenceVelocity(NamedTuple):
    """Optical-reference velocity channel: parsed and logged for scoring,
    never fused; Estimator.attach ignores it."""

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
    V_min: float = _positive(0.5)       # standstill speed threshold (m/s)
    A_min: float = _positive(0.2)       # standstill accel threshold (m/s^2)
    T_stop: float = _positive(1.0)      # required standstill duration (s)
    snr_min: float = 10.0               # radar SNR gate (dB)
    dV_r_max: float = _positive(3.0)    # Doppler innovation gate (m/s)
    V_Fy_min: float = _positive(5.0)    # lateral-force / slip-angle gate (m/s)
    dTw: float = _positive(0.150)       # max window span (s)
    dt: float = _positive(0.010)        # state grid step (s)
    watchdog_period: float = _positive(0.100)  # max radar silence (s)


@dataclass
class Covariances:
    """Diagonal covariances as variance vectors; Sigma_w is the process
    variance per nominal dt step and scales linearly with the actual
    sub-interval length."""

    Sigma_x0: np.ndarray = _vector(0.25, 0.25, 1e-2, 2.25e-4, 2.25e-4, 2.5e-7,
                                   positive=True)
    Sigma_P: np.ndarray = _vector(*2 * (0.16, 2.5e-3, 4e-4, 1e-2, 9e-6, 1e-4),
                                  positive=True)
    Sigma_w: np.ndarray = _vector(1.6e-7, 1.6e-7, 1e-6, 1e-10, 1e-10, 1e-12,
                                  positive=True)
    Sigma_zv: np.ndarray = _vector(1e-4, 1e-4, 1e-6, 4e-4, 4e-4, 1e-6,
                                   positive=True)
    sigma_doppler: float = _positive(0.2)
    Sigma_Fy: np.ndarray = _vector(9e4, 9e4, positive=True)


@dataclass
class ParamBounds:
    """Box on one axle's [B, C, D, E, Sh, Sv]; it clips both rows of
    tire.axles(P), the (2, 6) view of the 12-vector, by broadcasting."""

    P_min: np.ndarray = _vector(1.0, 0.5, 0.5, -5.0, -0.1, -0.5)
    P_max: np.ndarray = _vector(40.0, 4.0, 4.0, 1.0, 0.1, 0.5)


@dataclass
class SolverCfg:
    """At most max_iterations Gauss-Newton steps per window solve (one is
    the iterated-EKF update): the work per solve is bounded by construction."""

    max_iterations: int = _positive(1)
    cauchy_scale: float = _positive(1.0)    # on whitened Doppler residuals


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

    m: float = _positive(800.0)
    lf: float = _positive(1.6)
    lr: float = _positive(1.4)
    hg: float = _positive(0.3)
    g: float = _positive(9.81)
    rho: float = 1.2
    A: float = 1.0
    Czf: float = 1.9
    Czr: float = 2.3
    Iz: float = _positive(1000.0)           # truth simulator only
    steering_ratio: float = _positive(1.0)  # column angle / road-wheel angle
    delta_max: float = _positive(0.5)
    initial_biases: np.ndarray = _vector(0.0, 0.0, 0.0)
    initial_params: np.ndarray = _vector(*2 * (9.0, 1.5, 0.8, 0.0, 0.0, 0.0))
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
    dataclasses, which hold the defaults, units and rules; radars is a
    list of RadarExtrinsics mappings.  Only keys present in the file are
    overridden.  One walk converts and checks each value: it must have its
    field's type, numbers finite, arrays the shape of their default and
    fields declared positive > 0; then the rules of validate_config that
    relate fields apply.  Malformed input raises ConfigError naming the
    dotted path.  Numbers are never read from strings: YAML reads 1e-9 as
    a string, so write 1.0e-9.  ``path=None`` returns the defaults.
    """
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise IoError(f"cannot read config file {path!r}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path!r}: {e}") from e
    return _check_relations(_build(VehicleConfig, {} if raw is None else raw,
                                   ""))


def _convert(val, f, name: str):
    """``val`` as a value of dataclass field ``f``, of type ``f.type``: a
    dataclass is built from a mapping, an int must be integral, and numbers
    and arrays are never strings or bools.  The value must then be finite,
    have the shape declared in the field's metadata (a scalar none) and,
    if the field is declared positive, be > 0."""
    typ = f.type
    if is_dataclass(typ):
        return _build(typ, val, name)
    if get_origin(typ) is list:
        if not isinstance(val, list):
            raise ConfigError(f"{name}: expected a list, got {val!r}")
        (item,) = get_args(typ)
        return [_build(item, v, f"{name}[{i}]") for i, v in enumerate(val)]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    out = None
    try:
        if typ is np.ndarray:
            arr = np.asarray(val)           # ValueError when ragged
            if arr.dtype.kind in "iuf":
                out = arr.astype(float)
        elif typ is int and number and val == int(val):
            out = int(val)
        elif typ is float and number:
            out = float(val)                # OverflowError past 1.8e308
    except (ValueError, OverflowError):
        pass
    if out is None:
        expected = {np.ndarray: "a list of numbers", int: "an integer",
                    float: "a number"}[typ]
        raise ConfigError(f"{name}: expected {expected}, got {val!r}")
    shape = f.metadata.get("shape", ())
    if np.shape(out) != shape:
        raise ConfigError(f"{name}: expected shape {shape}")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name}: not finite")
    if f.metadata.get("positive") and not np.all(np.greater(out, 0)):
        raise ConfigError(f"{name}: must be positive")
    return out


def _build(cls, raw, path: str):
    """A new ``cls`` from a mapping that gives every field lacking a
    default; the other fields keep their defaults.  Every key must name a
    field, and ConfigError names the dotted path of a bad key or value
    (``path`` prefixes it)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'}: expected a mapping, "
                          f"got {raw!r}")
    by_name = {f.name: f for f in fields(cls)}
    values = {}
    for key, val in raw.items():
        name = f"{path}.{key}" if path else str(key)
        if key not in by_name:
            raise ConfigError(f"{name}: unknown config key")
        values[key] = _convert(val, by_name[key], name)
    for f in by_name.values():
        if (f.name not in values and f.default is MISSING
                and f.default_factory is MISSING):
            raise ConfigError(f"{path}.{f.name}: missing")
    return cls(**values)


def config_to_dict(cfg):
    """Plain-data rendering of a config, used for hashing, manifests and
    as a config file: a dataclass becomes a dict of its fields, an array
    or a list a list, and a numpy scalar a Python one."""
    if is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name))
                for f in fields(cfg)}
    if isinstance(cfg, (np.ndarray, np.generic)):
        return cfg.tolist()
    if isinstance(cfg, list):
        return [config_to_dict(v) for v in cfg]
    return cfg


def config_hash(cfg: VehicleConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def validate_config(cfg: VehicleConfig) -> VehicleConfig:
    """A checked copy of ``cfg``; raises ConfigError naming the field.

    The copy is read back from config_to_dict(cfg) by the walk that reads
    a config file, so a config built in code meets the rules of one
    loaded by load_config: every value has its field's type, every number
    and array entry is finite, every array keeps the shape of its default
    and a field declared positive (``_positive``,
    ``_vector(positive=True)``) is > 0.  The rules that relate fields are
    dTw >= dt, P_min <= P_max and at least one radar, whose rotation is
    orthonormal; in the copy, a rotation within 1e-6 of orthonormal is
    re-orthonormalized.  ``cfg`` itself is left unchanged.
    """
    return _check_relations(_build(type(cfg), config_to_dict(cfg), ""))


def _check_relations(cfg: VehicleConfig) -> VehicleConfig:
    """``cfg``, built by _build, once the rules of validate_config that
    relate fields hold; re-orthonormalizes its rotations in place."""
    if cfg.thresholds.dTw < cfg.thresholds.dt:
        raise ConfigError("thresholds.dTw: shorter than thresholds.dt")
    if np.any(cfg.bounds.P_min > cfg.bounds.P_max):
        raise ConfigError("bounds.P_min: above bounds.P_max")
    if not cfg.radars:
        raise ConfigError("radars: empty")
    for i, ext in enumerate(cfg.radars):
        err = np.abs(ext.rotation @ ext.rotation.T - np.eye(3)).max()
        det = np.linalg.det(ext.rotation)
        if err > 1e-6 or det < 0.5:
            raise ConfigError(f"radars[{i}].rotation: not a rotation")
        if err > 1e-12:
            u, _, vt = np.linalg.svd(ext.rotation)
            ext.rotation = u @ vt
    return cfg


# ---------------------------------------------------------------------------
# JSONL sensor-log model
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise RangeError(f"non-finite JSON constant {token!r}")


def _number(v, kind: str, key: str) -> float:
    """The JSON value ``v`` of field ``key`` of a ``kind`` record as a
    finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        if v is None:
            raise SchemaError(f"{kind} record missing field {key!r}")
        raise SchemaError(f"{kind} field {key!r} is not a number")
    try:
        v = float(v)
    except OverflowError:
        raise RangeError(
            f"{kind} field {key!r} is too large for a float") from None
    if not math.isfinite(v):
        raise RangeError(f"{kind} field {key!r} is not finite")
    return v


def _integer(v, kind: str, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{kind} record missing integer {key!r}")
    return v


def _points(v, kind: str, key: str) -> tuple:
    """A list of points, each a list of RadarPoint's fields in order."""
    if not isinstance(v, list):
        raise SchemaError(f"{kind} record missing {key!r} list")
    points = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != len(RadarPoint._fields):
            raise SchemaError(f"{kind} point {i} must be "
                              f"[{','.join(RadarPoint._fields)}]")
        for x in row:
            if type(x) is not float or x - x:   # not a finite float
                try:
                    row = [_number(val, kind, name)
                           for val, name in zip(row, RadarPoint._fields)]
                except (SchemaError, RangeError) as e:
                    raise type(e)(f"{kind} point {i}: {e}") from None
                break
        p = RadarPoint._make(row)
        if p.range < 0:
            raise RangeError(f"{kind} point {i} has negative range")
        points.append(p)
    return tuple(points)


_EVENT_TYPES = {"imu": ImuSample, "steering": SteeringSample,
                "radar": RadarScan, "ref_vel": ReferenceVelocity}

_READERS = {"radar_id": _integer, "points": _points}

# tag -> (class, ((field, reader, optional), ...)): a field with no default
# is required and one with a default (always None) optional; every field is
# a finite number but for those in _READERS.
_LOG_SCHEMA = {
    tag: (cls, tuple((key, _READERS.get(key, _number),
                      key in cls._field_defaults) for key in cls._fields))
    for tag, cls in _EVENT_TYPES.items()}

_EVENT_TAGS = {cls: tag for tag, cls in _EVENT_TYPES.items()}


def parse_event(line: str) -> SensorEvent:
    """Decode one JSONL log record into its sensor event.

    The record's "type" tag names the event class, and its other keys are
    that class's fields; see _LOG_SCHEMA.  Unknown fields are ignored.
    Malformed JSON raises ParseError, a missing or mistyped field
    SchemaError, and a non-finite number, one too large for a float or a
    scan received before its capture RangeError.
    """
    try:
        rec = json.loads(line, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(rec, dict):
        raise SchemaError("record is not a JSON object")
    kind = rec.get("type")
    schema = _LOG_SCHEMA.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise SchemaError(f"unknown record type {kind!r}")
    cls, spec = schema
    values = []
    for key, read, optional in spec:
        v = rec.get(key)
        values.append(None if v is None and optional else read(v, kind, key))
    ev = cls._make(values)
    if cls is RadarScan and ev.t_receive < ev.t_capture:
        raise RangeError("radar t_receive precedes t_capture")
    return ev


def serialize_event(ev: SensorEvent) -> str:
    """Encode an event as one JSONL line, the inverse of parse_event: the
    tag, then every field that is not None, in field order.  Raises
    RangeError on a non-finite value."""
    try:
        tag = _EVENT_TAGS[type(ev)]
    except KeyError:
        raise SchemaError(f"cannot serialize {type(ev).__name__}") from None
    rec = {"type": tag}
    rec.update((key, v) for key, v in zip(ev._fields, ev) if v is not None)
    try:
        return json.dumps(rec, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise RangeError(f"cannot serialize {tag} record: {e}") from None
