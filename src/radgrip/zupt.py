"""Standstill detection, attitude estimation at rest, gravity compensation
and the zero-velocity measurement model used to initialize IMU biases.

Conventions: world z is up, world gravity is (0, 0, -g); body z is up and a
resting accelerometer reads +g on its up axis.  gravity_body is
R_world_to_body @ (0, 0, -g), so a resting accelerometer reads
-gravity_body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from radgrip.core import ImuSample, InsufficientDataError, VehicleConfig


@dataclass
class AttitudeEstimate:
    rotation_world_to_body: np.ndarray
    gravity_body: np.ndarray


@dataclass(frozen=True)
class StandstillStatus:
    """stationary means both rest conditions have held for >= T_stop since
    `since`; `since` is the start of the current qualifying run."""

    stationary: bool
    since: float | None


INITIAL_STANDSTILL = StandstillStatus(False, None)


def update_standstill(status: StandstillStatus, speed_est: float | None,
                      accel_mag_comp: float, t: float,
                      cfg: VehicleConfig) -> StandstillStatus:
    """Advance the standstill detector by one sample.

    Both the speed and the gravity-compensated acceleration magnitude must
    stay under their thresholds continuously for T_stop; any violation (or
    a missing speed estimate) restarts the run at the current time.
    """
    th = cfg.thresholds
    ok = (speed_est is not None and speed_est < th.V_min
          and accel_mag_comp < th.A_min)
    if not ok:
        return StandstillStatus(False, t)
    since = status.since if status.since is not None else t
    return StandstillStatus(t - since >= th.T_stop, since)


def level_attitude(g: float) -> AttitudeEstimate:
    return AttitudeEstimate(np.eye(3), np.array([0.0, 0.0, -g]))


def estimate_attitude(imu_window: Sequence[ImuSample],
                      cfg: VehicleConfig) -> AttitudeEstimate:
    """Attitude from a standstill IMU window, in closed form.

    At rest the accelerometer measures the reaction to gravity, so the
    mean accelerometer direction is world-up in body axes: gravity_body is
    -g along it, and rotation_world_to_body is the smallest rotation taking
    world z onto it (yaw is unobservable at rest and set to zero).
    Samples missing az are completed with a level-vehicle az = g.  Raises
    InsufficientDataError when the window does not span T_stop.
    """
    samples = list(imu_window)
    if len(samples) < 2:
        raise InsufficientDataError("attitude window is empty or too short")
    span = samples[-1].t - samples[0].t
    if span < cfg.thresholds.T_stop - 1e-6:
        raise InsufficientDataError(
            f"attitude window spans {span:.3f}s < T_stop="
            f"{cfg.thresholds.T_stop}s")
    acc = np.array([[s.ax, s.ay, s.az if s.az is not None else cfg.g]
                    for s in samples])
    up = acc.mean(axis=0)
    up /= np.linalg.norm(up)
    # Rodrigues rotation about z x up; a half turn about x when upside down
    c = up[2]
    if c < -0.999999:
        R_wb = np.diag([1.0, -1.0, -1.0])
    else:
        V = np.array([[0.0, 0.0, up[0]], [0.0, 0.0, up[1]],
                      [-up[0], -up[1], 0.0]])
        R_wb = np.eye(3) + V + V @ V / (1.0 + c)
    return AttitudeEstimate(R_wb, -cfg.g * up)


def gravity_compensate(ax_meas: float, ay_meas: float,
                       att: AttitudeEstimate) -> tuple[float, float]:
    """Measured accelerations with gravity removed: a resting
    accelerometer reads -gravity_body, so adding gravity_body cancels it."""
    return (ax_meas + att.gravity_body[0], ay_meas + att.gravity_body[1])


def zv_residual(X, zv, w) -> np.ndarray:
    """Whitened zero-velocity residuals at state rows X (n, 6): velocities
    and yaw rate at zero, accel biases at the gravity-compensated readings
    and gyro bias at the raw yaw-rate sample, zv (n, 3) = (ax_tilde,
    ay_tilde, r_meas)."""
    raw = np.array(X, dtype=float)
    raw[:, 3:] -= zv
    return raw * w


def zv_jacobian(n: int, w) -> np.ndarray:
    """Partials of zv_residual, one diagonal (6, 6) block per row."""
    return np.broadcast_to(np.diag(w), (n, 6, 6))


def accel_magnitude_deviation(ax: float, ay: float, az: float | None,
                              g: float) -> float:
    """|‖a‖ - g|: gravity-compensated acceleration magnitude used by the
    standstill detector (attitude-free; az defaults to a level vehicle)."""
    if az is None:
        az = g
    return abs(math.sqrt(ax * ax + ay * ay + az * az) - g)
