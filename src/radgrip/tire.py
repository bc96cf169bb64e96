"""Lateral-dynamics measurement model: slip angles, vertical loads with
aero downforce, the Pacejka lateral curve, the inertial force split and
the unwhitened lateral-force residual with its partials.

Every function works on arrays (one entry per state), is shared with the
truth simulator, and gives each per-axle quantity a trailing axle axis,
front then rear: the rear uses the front's formula with lever arm -lr and
road-wheel angle 0.  axles(P) is the (2, 6) view of the 12 tire
parameters, one [B, C, D, E, Sh, Sv] row per axle; no other module knows
that layout.  The curve output is normalized (force per unit vertical
load), so axle forces are vertical load times curve value.
"""

from __future__ import annotations

import numpy as np

from radgrip.core import VehicleConfig

# the inertial split divides by cos(delta); lateral-force rows and outputs
# are gated far before it vanishes, beyond any physical steering range
COS_DELTA_MIN = 0.2
# road-wheel angle per axle, as a multiple of delta
_STEERED = (1.0, 0.0)


def axles(P: np.ndarray) -> np.ndarray:
    """The 12-vector P as a (2, 6) view: row a is axle a's
    [B, C, D, E, Sh, Sv], front first."""
    return P.reshape(2, 6)


def slip_angles(vx, vy, r, delta, cfg: VehicleConfig):
    """Axle slip angles, shape (..., 2) (no speed gate; see force_gate):
    the heading of the contact point's velocity (vx, vy + r l), with lever
    arm l = (lf, -lr), less the axle's road-wheel angle."""
    q = ((np.asarray(vy)[..., None] + np.multiply.outer(r, (cfg.lf, -cfg.lr)))
         / np.asarray(vx)[..., None])
    return np.arctan(q) - np.multiply.outer(delta, _STEERED)


def vertical_loads(vx, ax_meas, cfg: VehicleConfig):
    """Static load, longitudinal transfer and downforce, shape (..., 2)."""
    wb = cfg.lf + cfg.lr
    q = np.asarray(0.5 * cfg.rho * cfg.A * vx * vx)[..., None]
    return (cfg.m / wb * ((cfg.g * cfg.lr, cfg.g * cfg.lf)
                          + np.multiply.outer(ax_meas * cfg.hg, (-1.0, 1.0)))
            + q * (cfg.Czf, cfg.Czr))


def force_gate(vx, vy, ax_meas, delta, cfg: VehicleConfig):
    """True where the lateral-force model applies: total speed above
    V_Fy_min, |vx| at least V_Fy_min (clear of the 1/vx singularity of the
    slip angles), cos(delta) above COS_DELTA_MIN and both vertical loads
    positive (the model force Fz*Y and its partials change sign at
    Fz <= 0)."""
    v_min = cfg.thresholds.V_Fy_min
    return ((np.hypot(vx, vy) > v_min) & (np.abs(vx) >= v_min)
            & (np.cos(delta) > COS_DELTA_MIN)
            & (vertical_loads(vx, ax_meas, cfg).min(-1) > 0.0))


def magic_formula_values(slip, p6):
    """Normalized lateral force Y(slip) = y(slip + Sh) + Sv with
    y(s) = D sin(C atan(B s - E (B s - atan(B s)))); p6 is
    [B, C, D, E, Sh, Sv], or one such row per axle, broadcast against a
    trailing axle axis of slip.  Cheaper than magic_formula_derivs."""
    B, C, D, E, Sh, Sv = np.asarray(p6, dtype=float).T
    u1 = B * (slip + Sh)
    inner = u1 - E * (u1 - np.arctan(u1))
    return D * np.sin(C * np.arctan(inner)) + Sv


def magic_formula_derivs(slip, p6):
    """Curve value plus derivatives w.r.t. slip and the 6 parameters.

    slip and p6 are as for magic_formula_values.  Returns
    (Y, dY_dslip, dY_dp) with dY_dp of shape Y.shape + (6,).
    """
    B, C, D, E, Sh, Sv = np.asarray(p6, dtype=float).T
    s = slip + Sh
    u1 = B * s
    at_u1 = np.arctan(u1)
    inner = u1 - E * (u1 - at_u1)
    at_in = np.arctan(inner)
    sin_phi = np.sin(C * at_in)
    cos_phi = np.cos(C * at_in)
    d_at_in = 1.0 / (1.0 + inner * inner)
    d_inner_du1 = 1.0 - E * (1.0 - 1.0 / (1.0 + u1 * u1))
    common = D * cos_phi * C * d_at_in
    Y = D * sin_phi + Sv
    dY_dslip = common * B * d_inner_du1
    dY_dp = np.empty(Y.shape + (6,))
    dY_dp[..., 0] = common * s * d_inner_du1          # dB
    dY_dp[..., 1] = D * cos_phi * at_in               # dC
    dY_dp[..., 2] = sin_phi                           # dD
    dY_dp[..., 3] = common * (-(u1 - at_u1))          # dE
    dY_dp[..., 4] = dY_dslip                          # dSh
    dY_dp[..., 5] = 1.0                               # dSv
    return Y, dY_dslip, dY_dp


def force_slip(alpha):
    """Slip fed to the tire curve.

    The curve is parameterized over the force-producing slip direction,
    the negative of the velocity-side slip angle of slip_angles; a tire
    force opposes the slip of its contact patch, and this orientation is
    what keeps the fitted B, C, D positive inside their box.
    """
    return -alpha


def model_lateral_forces(X, ax_meas, delta, P, cfg: VehicleConfig):
    """Axle lateral forces, shape (..., 2), from the tire curve at state
    rows X (..., 6) and the 12-vector P."""
    vx = X[..., 0]
    alpha = slip_angles(vx, X[..., 1], X[..., 2], delta, cfg)
    return vertical_loads(vx, ax_meas, cfg) * magic_formula_values(
        force_slip(alpha), axles(P))


def measured_lateral_forces(ay_meas, delta, cfg: VehicleConfig):
    """Static-split inertial axle forces, shape (..., 2), from lateral
    acceleration: m ay split in the ratio lr : lf, the front's along its
    road wheel."""
    wb = cfg.lf + cfg.lr
    share = (cfg.lr / wb * cfg.m, cfg.lf / wb * cfg.m)
    return (np.multiply.outer(ay_meas, share)
            / np.cos(np.multiply.outer(delta, _STEERED)))


def lateral_force_residual(X, ax_meas, delta, fy_meas, P,
                           cfg: VehicleConfig) -> np.ndarray:
    """Measured minus model axle forces, shape (n, 2), at state rows
    X (n, 6); fy_meas (n, 2) from measured_lateral_forces."""
    return fy_meas - model_lateral_forces(X, ax_meas, delta, P, cfg)


def lateral_force_jacobian(X, ax_meas, delta, P, cfg: VehicleConfig):
    """Partials of lateral_force_residual: d/d[vx, vy, r] of shape
    (n, 2, 3) and d/dP of shape (n, 2, 12), whose axle rows are the block
    diagonal of the per-axle curve partials."""
    vx, vy, r = X[:, 0], X[:, 1], X[:, 2]
    lever = (cfg.lf, -cfg.lr)
    Fz = vertical_loads(vx, ax_meas, cfg)
    Y, dY_ds, dY_dp = magic_formula_derivs(
        force_slip(slip_angles(vx, vy, r, delta, cfg)), axles(P))
    vx = vx[:, None]
    q = (vy[:, None] + np.multiply.outer(r, lever)) / vx
    g = 1.0 / (1.0 + q * q)
    # chain rule through force_slip: d(-alpha)/d(state)
    ds_dvx, ds_dvy, ds_dr = g * q / vx, -g / vx, -g * lever / vx
    dFz_dvx = vx * (cfg.Czf * cfg.rho * cfg.A, cfg.Czr * cfg.rho * cfg.A)
    dX = np.empty(Y.shape + (3,))
    dX[..., 0] = -(dFz_dvx * Y + Fz * dY_ds * ds_dvx)
    dX[..., 1] = -Fz * dY_ds * ds_dvy
    dX[..., 2] = -Fz * dY_ds * ds_dr
    dP = np.zeros(Y.shape + (2, 6))
    dP[:, (0, 1), (0, 1)] = -Fz[..., None] * dY_dp
    return dX, dP.reshape(len(Y), 2, 12)


def cornering_stiffness(p: np.ndarray):
    """Slope BCD of the normalized lateral curve at zero effective slip,
    for p of shape (..., 6), each row [B, C, D, E, Sh, Sv]."""
    return p[..., 0] * p[..., 1] * p[..., 2]
