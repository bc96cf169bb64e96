"""Radar Doppler processing: bearing geometry, expected Doppler from the
vehicle state, de-aliasing against the Nyquist band, SNR and innovation
gating, conversion of scans into robust scalar residual factors bound
to time-matched window states, and the whitened Doppler residual with its
partials.

The sign convention is v_d = -b . v_R: points ahead of a forward-moving
radar measure negative Doppler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radgrip.core import (AliasDomainError, RadarExtrinsics, RadarScan,
                          SchemaError, StaleScanError, VehicleConfig)

REJECT_LOW_SNR = "LowSNR"
REJECT_INNOVATION = "Innovation"


@dataclass
class DopplerFactor:
    """One de-aliased Doppler observation bound to a window state.

    cx, cy, lever are the body-frame projection terms of its bearing used
    by the solver: v_e = -(cx*vx + cy*vy + lever*r).
    """

    state_timestamp: float
    v_r: float
    sigma: float
    radar_id: int
    n_wraps: int
    cx: float
    cy: float
    lever: float


def bearing_vectors(azimuth, elevation) -> np.ndarray:
    """Unit bearing vectors (cos e cos a, cos e sin a, sin e), shape
    (..., 3)."""
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth),
                     np.sin(elevation)], axis=-1)


def body_projection(ext: RadarExtrinsics, bearings: np.ndarray):
    """Per-point body-frame projection terms (cx, cy, lever) for a set of
    radar-frame bearings of shape (N, 3)."""
    c = bearings @ ext.rotation.T
    tx, ty = ext.translation[0], ext.translation[1]
    lever = c[:, 1] * tx - c[:, 0] * ty
    return c[:, 0], c[:, 1], lever


def expected_doppler(X, cx, cy, lever):
    """Doppler static points would measure from state rows X (..., 6),
    given their projection terms (z velocity and roll/pitch rates
    ignored)."""
    return -(cx * X[..., 0] + cy * X[..., 1] + lever * X[..., 2])


def dealias(v_d, v_e, V_N: float):
    """Recover the true Doppler from wrapped measurements using the
    predicted values: n = nint((v_e - v_d) / (2 V_N)), v_r = v_d + 2 n V_N.

    nint ties (exact .5) resolve half-to-even.  Returns (v_r, n); raises
    AliasDomainError if a measurement violates |v_d| <= V_N.
    """
    v_d = np.asarray(v_d, dtype=float)
    if np.any(np.abs(v_d) > V_N * (1.0 + 1e-12)):
        worst = float(np.abs(v_d).max())
        raise AliasDomainError(f"|v_d|={worst:.3f} exceeds V_N={V_N}")
    n = np.rint((v_e - v_d) / (2.0 * V_N)).astype(int)
    return v_d + 2.0 * n * V_N, n


def gate_points(snr, v_e, v_r, cfg: VehicleConfig) -> np.ndarray:
    """Rejection reason per point (REJECT_LOW_SNR before
    REJECT_INNOVATION), None where the point is accepted."""
    th = cfg.thresholds
    reason = np.full(np.shape(snr), None, dtype=object)
    reason[np.abs(np.asarray(v_r) - v_e) > th.dV_r_max] = REJECT_INNOVATION
    reason[np.asarray(snr) < th.snr_min] = REJECT_LOW_SNR
    return reason


def doppler_residual(X, v_r, cx, cy, lever, w) -> np.ndarray:
    """Whitened Doppler residuals (v_r - v_e) * w at state rows X; the
    solver applies the Cauchy robust loss on top of these values."""
    return (v_r - expected_doppler(X, cx, cy, lever)) * w


def doppler_jacobian(cx, cy, lever, w) -> np.ndarray:
    """Partials of doppler_residual w.r.t. [vx, vy, r], shape (N, 3)."""
    return np.stack([w * cx, w * cy, w * lever], axis=-1)


def scan_to_factors(scan: RadarScan, window, cfg: VehicleConfig
                    ) -> list[DopplerFactor]:
    """Convert a scan into Doppler factors bound to a state at t_capture.

    Requests (and if needed inserts) a window state at the capture time,
    predicts per-point Doppler there, de-aliases, gates, and emits one
    factor per surviving point.  Raises StaleScanError when the capture
    time predates the window.
    """
    if not (0 <= scan.radar_id < len(cfg.radars)):
        raise SchemaError(f"unknown radar_id {scan.radar_id}")
    ext = cfg.radars[scan.radar_id]
    if scan.t_capture < window.oldest_t() - 1e-9:
        raise StaleScanError(
            f"scan captured at {scan.t_capture:.4f} predates window start "
            f"{window.oldest_t():.4f}")
    x_cap = window.ensure_state_at(scan.t_capture)
    if not scan.points:
        return []
    pts = np.array([(p.azimuth, p.elevation, p.doppler, p.snr)
                    for p in scan.points])
    cx, cy, lever = body_projection(ext, bearing_vectors(pts[:, 0],
                                                         pts[:, 1]))
    v_e = expected_doppler(x_cap, cx, cy, lever)
    v_r, n = dealias(pts[:, 2], v_e, ext.nyquist)
    accepted = np.equal(gate_points(pts[:, 3], v_e, v_r, cfg), None)
    return [DopplerFactor(state_timestamp=scan.t_capture, v_r=float(v_r[i]),
                          sigma=cfg.covariances.sigma_doppler,
                          radar_id=scan.radar_id, n_wraps=int(n[i]),
                          cx=float(cx[i]), cy=float(cy[i]),
                          lever=float(lever[i]))
            for i in np.flatnonzero(accepted)]


def ego_velocity_ls(scan: RadarScan, ext: RadarExtrinsics,
                    snr_min: float) -> tuple[float, float] | None:
    """Instantaneous planar velocity from one scan by least squares over
    v_d = -(cx vx + cy vy).  Valid only below the Nyquist band; used as a
    coarse speed source for the standstill detector before the first fix.
    """
    pts = [p for p in scan.points if p.snr >= snr_min]
    if len(pts) < 5:
        return None
    az = np.array([p.azimuth for p in pts])
    el = np.array([p.elevation for p in pts])
    vd = np.array([p.doppler for p in pts])
    b = bearing_vectors(az, el)
    cx, cy, _ = body_projection(ext, b)
    A = np.stack([-cx, -cy], axis=1)
    AtA = A.T @ A
    if np.linalg.det(AtA) < 1e-6:
        return None
    sol = np.linalg.solve(AtA, A.T @ vd)
    return float(sol[0]), float(sol[1])
