"""Correctness gate: the failed-operation rule and the accuracy ceilings.

An operation is one expected 10 ms output row of the log.  A row fails
when it is missing, has a non-finite value in a channel that is always
emitted, or is out of timestamp order.  A replay that aborts emits no
rows after the abort, so those rows count as missing.  Rows that match
no expected timestamp are counted as failures too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# channels every row carries; slip, force and side-slip are empty below
# the speed gate
ALWAYS_EMITTED = ("t", "vx", "vy", "r", "bx", "by", "br", "BCD_f", "BCD_r")

# ceilings on the accuracy metrics, about five times what the estimator
# reaches on these workloads; a result above one is wrong, not slow
ACCURACY_CEILINGS = {
    "vx_rmse": 0.1,
    "vy_rmse": 0.15,
    "alpha_f_rmse": 0.004,
    "alpha_r_rmse": 0.004,
    "fyf_rmse": 700.0,
    "fyr_rmse": 700.0,
}

_T_TOL = 1e-6


@dataclass
class RowCheck:
    attempted: int
    failed: int
    missing: int
    nonfinite: int
    out_of_order: int
    unexpected: int


def expected_times(t_first: float, t_last: float, dt: float) -> np.ndarray:
    """Grid timestamps the estimator owes for a log spanning
    [t_first, t_last]: one every dt from the first event on."""
    n = int(math.floor((t_last - t_first) / dt + 1e-9)) + 1
    return t_first + dt * np.arange(n)


def check_rows(expected: np.ndarray, t_rows, finite_rows) -> RowCheck:
    """Apply the failed-operation rule to rows in emission order."""
    expected = np.asarray(expected, dtype=float)
    bad = np.zeros(len(expected), dtype=bool)
    seen = np.zeros(len(expected), dtype=bool)
    nonfinite = out_of_order = unexpected = 0
    prev = -math.inf
    for t, finite in zip(t_rows, finite_rows):
        in_order = math.isfinite(t) and t > prev + _T_TOL
        if math.isfinite(t):
            prev = max(prev, t)
        k = int(np.searchsorted(expected, t - _T_TOL)) \
            if math.isfinite(t) else len(expected)
        if k >= len(expected) or abs(expected[k] - t) > _T_TOL:
            unexpected += 1
            continue
        if not in_order:
            out_of_order += 1
            bad[k] = True
        if not finite:
            nonfinite += 1
            bad[k] = True
        seen[k] = True
    missing = int(np.sum(~seen))
    failed = int(np.sum(bad | ~seen)) + unexpected
    return RowCheck(len(expected) + unexpected, failed, missing, nonfinite,
                    out_of_order, unexpected)


def read_estimate_rows(path: str):
    """Timestamps and finiteness flags of the rows of an estimate CSV."""
    t_rows, finite_rows = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            vals = []
            for name in ALWAYS_EMITTED:
                try:
                    vals.append(float(rec.get(name) or "nan"))
                except ValueError:
                    vals.append(math.nan)
            t_rows.append(vals[0])
            finite_rows.append(all(math.isfinite(v) for v in vals))
    return t_rows, finite_rows


def memory_rows(rows):
    """Timestamps and finiteness flags of the estimator's in-memory rows
    (used when the replay aborted before writing its CSV)."""
    t_rows, finite_rows = [], []
    for row in rows:
        vals = [float(getattr(row, n)) for n in ALWAYS_EMITTED]
        t_rows.append(vals[0])
        finite_rows.append(all(math.isfinite(v) for v in vals))
    return t_rows, finite_rows


def accuracy_failures(metrics: dict) -> list[str]:
    """Names of accuracy metrics that are missing, non-finite or above
    their ceiling."""
    out = []
    for name, ceiling in ACCURACY_CEILINGS.items():
        v = metrics.get(name)
        if v is None or not math.isfinite(v) or v > ceiling:
            out.append(f"{name}={v} (ceiling {ceiling})")
    return out
