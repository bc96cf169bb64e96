"""Joint velocity, IMU-bias, slip-angle and tire-parameter estimation from
IMU, steering and radar Doppler measurements, built around a sliding-window
nonlinear least-squares backend.  Ships with a synthetic scenario generator
and a replay CLI for closed-loop validation."""

from radgrip.core import (
    VehicleConfig,
    RadarPoint,
    RadarScan,
    RadarExtrinsics,
    ImuSample,
    SteeringSample,
    ReferenceVelocity,
    parse_event,
    serialize_event,
    load_config,
    default_config,
    validate_config,
    SolverCfg,
)
from radgrip.mhe import Estimator, SlidingWindow, SolveReport

__all__ = [
    "VehicleConfig",
    "RadarPoint",
    "RadarScan",
    "RadarExtrinsics",
    "ImuSample",
    "SteeringSample",
    "ReferenceVelocity",
    "parse_event",
    "serialize_event",
    "load_config",
    "default_config",
    "validate_config",
    "Estimator",
    "SlidingWindow",
    "SolverCfg",
    "SolveReport",
]
