"""The standstill detector, which reads each IMU sample and the estimated
speed to mark the ZUPT states that anchor the IMU biases, plus
estimate_attitude, which only perfbench still pins.

Conventions: body z is up and a resting accelerometer reads +g on its up
axis.  mhe.WindowProblem pins a ZUPT state to (0, 0, 0, ax, ay, r), from
its own input row, with an identity factor: at rest the velocities and yaw
rate are zero, the accel biases equal the planar accelerometer readings
and the gyro bias equals the yaw-rate reading.  The vehicle is taken to
rest level, since at rest tilt and accelerometer bias cannot be told
apart: a rest pitched by theta (nose down) puts -g sin(theta) into the bx
target, and a rest rolled by phi puts g cos(theta) sin(phi) into the by
target, each pinned with the default Sigma_zv's sigma of 0.02 m/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from radgrip.core import ImuSample, InsufficientDataError, VehicleConfig


@dataclass(frozen=True)
class StandstillStatus:
    """stationary means both rest conditions have held for >= T_stop since
    `since`; `since` is the start of the current qualifying run."""

    stationary: bool
    since: float | None


INITIAL_STANDSTILL = StandstillStatus(False, None)


def update_standstill(status: StandstillStatus, speed_est: float | None,
                      imu: ImuSample, cfg: VehicleConfig) -> StandstillStatus:
    """Advance the standstill detector by one IMU sample.

    Both the speed and the sample's gravity-compensated acceleration
    magnitude |‖a‖ - g|, attitude-free with a missing az read as level,
    must stay under their thresholds continuously for T_stop; any violation
    (or a missing speed estimate) restarts the run at the sample's time.
    """
    th = cfg.thresholds
    ax, ay, az = imu.ax, imu.ay, (cfg.g if imu.az is None else imu.az)
    ok = (speed_est is not None and speed_est < th.V_min
          and abs(math.sqrt(ax * ax + ay * ay + az * az) - cfg.g) < th.A_min)
    if not ok:
        return StandstillStatus(False, imu.t)
    since = status.since if status.since is not None else imu.t
    return StandstillStatus(imu.t - since >= th.T_stop, since)


def estimate_attitude(imu_window: Sequence[ImuSample],
                      cfg: VehicleConfig) -> np.ndarray:
    """gravity_body (3,) from a standstill IMU window, in closed form:
    world gravity (0, 0, -g) in body axes.  The estimator does not call
    it; it stays only because perfbench/measure.py LAYERS and
    tests/test_layers.py name it, and goes with the benchmark revision
    that drops that layer.

    At rest the accelerometer measures the reaction to gravity, so the
    mean accelerometer direction is world-up in body axes, and
    gravity_body is -g along it.  Samples missing az are completed with a
    level-vehicle az = g.  Raises InsufficientDataError when the window
    does not span T_stop.
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
    return -cfg.g * up
