"""Lateral-dynamics measurement model: slip angles, vertical loads with
aero downforce, the Pacejka lateral curve, the inertial force split and
the whitened lateral-force factor with its partials.

The curve output is normalized (force per unit vertical load), so axle
forces are vertical load times curve value.  Every function here works on
arrays (one entry per state) and is shared with the truth simulator.
"""

from __future__ import annotations

import numpy as np

from radgrip.core import VehicleConfig

# the inertial split divides by cos(delta); lateral-force rows and outputs
# are gated far before it vanishes, beyond any physical steering range
COS_DELTA_MIN = 0.2


def slip_angles(vx, vy, r, delta, cfg: VehicleConfig):
    """Front/rear axle slip angles (no speed gate; see force_gate)."""
    alpha_f = np.arctan((vy + r * cfg.lf) / vx) - delta
    alpha_r = np.arctan((vy - r * cfg.lr) / vx)
    return alpha_f, alpha_r


def vertical_loads(vx, ax_meas, cfg: VehicleConfig):
    """Static load, longitudinal transfer and downforce per axle."""
    wb = cfg.lf + cfg.lr
    q = 0.5 * cfg.rho * cfg.A * vx * vx
    Fzf = cfg.m / wb * (cfg.g * cfg.lr - ax_meas * cfg.hg) + cfg.Czf * q
    Fzr = cfg.m / wb * (cfg.g * cfg.lf + ax_meas * cfg.hg) + cfg.Czr * q
    return Fzf, Fzr


def force_gate(vx, vy, ax_meas, delta, cfg: VehicleConfig):
    """True where the lateral-force model applies: total speed above
    V_Fy_min, |vx| at least V_Fy_min (clear of the 1/vx singularity of the
    slip angles), cos(delta) above COS_DELTA_MIN and both vertical loads
    positive (the model force Fz*Y and its partials change sign at
    Fz <= 0)."""
    v_min = cfg.thresholds.V_Fy_min
    Fzf, Fzr = vertical_loads(vx, ax_meas, cfg)
    return ((np.hypot(vx, vy) > v_min) & (np.abs(vx) >= v_min)
            & (np.cos(delta) > COS_DELTA_MIN) & (Fzf > 0.0) & (Fzr > 0.0))


def magic_formula_values(slip, p6):
    """Normalized lateral force Y(slip) = y(slip + Sh) + Sv with
    y(s) = D sin(C atan(B s - E (B s - atan(B s)))); p6 is
    [B, C, D, E, Sh, Sv].  Cheaper than magic_formula_derivs."""
    slip = np.asarray(slip, dtype=float)
    B, C, D, E, Sh, Sv = (float(v) for v in p6)
    u1 = B * (slip + Sh)
    inner = u1 - E * (u1 - np.arctan(u1))
    return D * np.sin(C * np.arctan(inner)) + Sv


def magic_formula_derivs(slip, p6):
    """Curve value plus derivatives w.r.t. slip and the 6 parameters.

    slip may be an array; p6 is [B, C, D, E, Sh, Sv].  Returns
    (Y, dY_dslip, dY_dp) with dY_dp of shape slip.shape + (6,).
    """
    slip = np.asarray(slip, dtype=float)
    B, C, D, E, Sh, Sv = (float(v) for v in p6)
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
    dY_dp = np.empty(slip.shape + (6,))
    dY_dp[..., 0] = common * s * d_inner_du1          # dB
    dY_dp[..., 1] = D * cos_phi * at_in               # dC
    dY_dp[..., 2] = sin_phi                           # dD
    dY_dp[..., 3] = common * (-(u1 - at_u1))          # dE
    dY_dp[..., 4] = dY_dslip                          # dSh
    dY_dp[..., 5] = np.ones_like(slip)                # dSv
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
    """Axle lateral forces (Fyf, Fyr) from the tire curve at state rows X
    (..., 6); P holds the 12 parameters, front axle first."""
    vx = X[..., 0]
    af, ar = slip_angles(vx, X[..., 1], X[..., 2], delta, cfg)
    Fzf, Fzr = vertical_loads(vx, ax_meas, cfg)
    return (Fzf * magic_formula_values(force_slip(af), P[:6]),
            Fzr * magic_formula_values(force_slip(ar), P[6:]))


def measured_lateral_forces(ay_meas, delta, cfg: VehicleConfig):
    """Static-split inertial axle forces (Fyf, Fyr) from lateral
    acceleration."""
    wb = cfg.lf + cfg.lr
    return ((cfg.lr / wb) * cfg.m * ay_meas / np.cos(delta),
            (cfg.lf / wb) * cfg.m * ay_meas)


def lateral_force_residual(X, ax_meas, delta, fy_meas, P, w,
                           cfg: VehicleConfig) -> np.ndarray:
    """Whitened (measured - model) axle forces, shape (n, 2), at state rows
    X (n, 6); fy_meas (n, 2) from measured_lateral_forces, w the two
    inverse standard deviations."""
    Fyf, Fyr = model_lateral_forces(X, ax_meas, delta, P, cfg)
    return (fy_meas - np.stack([Fyf, Fyr], axis=1)) * w


def lateral_force_jacobian(X, ax_meas, delta, P, w, cfg: VehicleConfig):
    """Partials of lateral_force_residual: d/d[vx, vy, r] of shape
    (n, 2, 3) and d/dP of shape (n, 2, 12)."""
    vx, vy, r = X[:, 0], X[:, 1], X[:, 2]
    af, ar = slip_angles(vx, vy, r, delta, cfg)
    Fzf, Fzr = vertical_loads(vx, ax_meas, cfg)
    Yf, dYf_ds, dYf_dp = magic_formula_derivs(force_slip(af), P[:6])
    Yr, dYr_ds, dYr_dp = magic_formula_derivs(force_slip(ar), P[6:])
    qf = (vy + r * cfg.lf) / vx
    qr = (vy - r * cfg.lr) / vx
    gf = 1.0 / (1.0 + qf * qf)
    gr = 1.0 / (1.0 + qr * qr)
    # chain rule through force_slip: d(-alpha)/d(state)
    daf_dvx, daf_dvy, daf_dr = gf * qf / vx, -gf / vx, -gf * cfg.lf / vx
    dar_dvx, dar_dvy, dar_dr = gr * qr / vx, -gr / vx, gr * cfg.lr / vx
    dFz_dvx_f = cfg.Czf * cfg.rho * cfg.A * vx
    dFz_dvx_r = cfg.Czr * cfg.rho * cfg.A * vx
    wf, wr = w[0], w[1]
    dX = np.empty((len(vx), 2, 3))
    dX[:, 0, 0] = -wf * (dFz_dvx_f * Yf + Fzf * dYf_ds * daf_dvx)
    dX[:, 0, 1] = -wf * Fzf * dYf_ds * daf_dvy
    dX[:, 0, 2] = -wf * Fzf * dYf_ds * daf_dr
    dX[:, 1, 0] = -wr * (dFz_dvx_r * Yr + Fzr * dYr_ds * dar_dvx)
    dX[:, 1, 1] = -wr * Fzr * dYr_ds * dar_dvy
    dX[:, 1, 2] = -wr * Fzr * dYr_ds * dar_dr
    dP = np.zeros((len(vx), 2, 12))
    dP[:, 0, :6] = -wf * Fzf[:, None] * dYf_dp
    dP[:, 1, 6:] = -wr * Fzr[:, None] * dYr_dp
    return dX, dP


def cornering_stiffness(p: np.ndarray) -> float:
    """Slope of the normalized lateral curve at zero effective slip, for
    one axle's p = [B, C, D, E, Sh, Sv]."""
    return float(p[0] * p[1] * p[2])
