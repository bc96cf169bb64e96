"""Radar Doppler processing: bearing geometry, expected Doppler from the
vehicle state, de-aliasing against the Nyquist band, alias, SNR and
innovation gating, conversion of scans into Doppler rows bound to the
state at their capture time, and the unwhitened Doppler residual, whose
partials are the rows' stored projection terms.

The sign convention is v_d = -b . v_R: points ahead of a forward-moving
radar measure negative Doppler.
"""

from __future__ import annotations

import numpy as np

from radgrip.core import RadarExtrinsics, RadarScan, VehicleConfig

REJECT_ALIAS = "Alias"
REJECT_LOW_SNR = "LowSNR"
REJECT_INNOVATION = "Innovation"


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
    given their projection terms; only X[..., :3] = (vx, vy, r) is read
    (z velocity and roll/pitch rates ignored)."""
    return -(cx * X[..., 0] + cy * X[..., 1] + lever * X[..., 2])


def dealias(v_d, v_e, V_N: float):
    """Recover the true Doppler from wrapped measurements using the
    predicted values: n = nint((v_e - v_d) / (2 V_N)), v_r = v_d + 2 n V_N.

    nint ties (exact .5) resolve half-to-even.  Returns (v_r, n); v_r is
    NaN where a measurement violates |v_d| <= V_N.
    """
    v_d = np.asarray(v_d, dtype=float)
    in_band = np.abs(v_d) <= V_N * (1.0 + 1e-12)
    # n is computed with 0 in place of an out-of-band v_d, so that a huge
    # finite one cannot overflow the int cast
    n = np.rint((v_e - np.where(in_band, v_d, 0.0)) / (2.0 * V_N)).astype(int)
    return np.where(in_band, v_d + 2.0 * n * V_N, np.nan), n


def gate_points(snr, v_e, v_r, cfg: VehicleConfig) -> np.ndarray:
    """Rejection reason per point (REJECT_ALIAS, for a NaN v_r from
    dealias, before REJECT_LOW_SNR before REJECT_INNOVATION), None where
    the point is accepted."""
    th = cfg.thresholds
    v_r = np.asarray(v_r, dtype=float)
    reason = np.full(np.shape(snr), None, dtype=object)
    reason[np.abs(v_r - v_e) > th.dV_r_max] = REJECT_INNOVATION
    reason[np.asarray(snr) < th.snr_min] = REJECT_LOW_SNR
    reason[np.isnan(v_r)] = REJECT_ALIAS
    return reason


def doppler_residual(X, v_r, cx, cy, lever) -> np.ndarray:
    """Doppler residuals v_r - v_e = v_r + cx*vx + cy*vy + lever*r at
    state rows X, so their partials w.r.t. (vx, vy, r) are the projection
    terms (cx, cy, lever) themselves."""
    return v_r - expected_doppler(X, cx, cy, lever)


def scan_to_factors(scan: RadarScan, x_cap: np.ndarray,
                    cfg: VehicleConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rows, rejected): the Doppler rows [t_capture, v_r, cx, cy, lever],
    shape (M, 5), of the points of a scan that pass the gate, and the
    gate_points reason of each other point, in point order.

    Predicts per-point Doppler at x_cap, the state at the capture time,
    de-aliases and gates; (cx, cy, lever) are the body-frame projection
    terms of each bearing, v_e = -(cx*vx + cy*vy + lever*r).  The scan's
    radar_id must index cfg.radars; the estimator drops other scans.
    """
    ext = cfg.radars[scan.radar_id]
    if not scan.points:
        return np.empty((0, 5)), np.empty(0, dtype=object)
    # columns azimuth, elevation, doppler, snr of RadarPoint
    pts = np.array(scan.points)[:, 1:]
    cx, cy, lever = body_projection(ext, bearing_vectors(pts[:, 0],
                                                         pts[:, 1]))
    v_e = expected_doppler(x_cap, cx, cy, lever)
    v_r, _ = dealias(pts[:, 2], v_e, ext.nyquist)
    reason = gate_points(pts[:, 3], v_e, v_r, cfg)
    accepted = np.equal(reason, None)
    rows = np.stack((np.full(len(v_r), scan.t_capture), v_r, cx, cy, lever),
                    axis=1)
    return rows[accepted], reason[~accepted]
