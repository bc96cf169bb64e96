"""Discrete rigid-body motion model in curvilinear coordinates.

Velocities integrate measured accelerations (bias-corrected, with Coriolis
coupling) by forward Euler; the yaw rate is taken algebraically from the
previous gyro sample minus its bias; biases are random walks.

States are rows [vx, vy, r, bx, by, br]; predict_array and
transition_jacobian take one row or a stack of rows (K, 6), with inputs
and dt broadcast per row.
"""

from __future__ import annotations

import numpy as np


def predict_array(X, u_ax, u_ay, u_r, dt) -> np.ndarray:
    """One forward-Euler step of the motion model.

    vx' = vx + ((ax - bx) + r*vy) * dt
    vy' = vy + ((ay - by) - r*vx) * dt
    r'  = r_meas - br          (algebraic, previous gyro sample)
    biases carried unchanged.
    """
    vx, vy, r, bx, by, br = np.asarray(X, dtype=float).T
    out = np.array(X, dtype=float)
    out.T[0] = vx + ((u_ax - bx) + r * vy) * dt
    out.T[1] = vy + ((u_ay - by) - r * vx) * dt
    out.T[2] = u_r - br
    return out


def process_residual(X, u_ax, u_ay, u_r, dt, w) -> np.ndarray:
    """Whitened residuals X[k+1] - f(X[k], u[k]) of a state chain X (K, 6).

    Inputs and dt have K-1 entries (u_* may have K; the last is unused);
    w (K-1, 6) is one over the process standard deviation of each step.
    """
    n = len(X) - 1
    pred = predict_array(X[:-1], u_ax[:n], u_ay[:n], u_r[:n], dt)
    return (X[1:] - pred) * w


def transition_jacobian(X, dt) -> np.ndarray:
    """d f / d x for one Euler step per row, shape X.shape[:-1] + (6, 6)."""
    X = np.asarray(X, dtype=float)
    vx, vy, r = X[..., 0], X[..., 1], X[..., 2]
    F = np.zeros(X.shape + (6,)) + np.eye(6)
    F[..., 0, 1] = r * dt
    F[..., 0, 2] = vy * dt
    F[..., 0, 3] = -dt
    F[..., 1, 0] = -r * dt
    F[..., 1, 2] = -vx * dt
    F[..., 1, 4] = -dt
    F[..., 2, 2] = 0.0
    F[..., 2, 5] = -1.0
    return F


def process_jacobian(X, dt, w) -> np.ndarray:
    """Partials of process_residual: one (6, 12) block per step k over
    [x_k, x_{k+1}], shape (K-1, 6, 12)."""
    n = len(X) - 1
    blocks = np.empty((n, 6, 12))
    blocks[:, :, :6] = -w[:, :, None] * transition_jacobian(X[:-1], dt)
    blocks[:, :, 6:] = w[:, :, None] * np.eye(6)
    return blocks
