"""Virtual-time FIFO replay of recorded per-event service times.

The estimator handles events one at a time in arrival order, so its
latency at any replay rate follows from the service time of each event:
event i is due at (arrival_i - arrival_0) / rate, starts when it is due
and the previous event has finished, and its latency is finish - due.
Computing this in virtual time needs no sleeping and so does not depend
on the scheduler.
"""

from __future__ import annotations

import numpy as np


def queued_latency(arrival, service, rate: float) -> np.ndarray:
    """Latency (s) of every event through a single FIFO server.

    finish_i = max(due_i, finish_{i-1}) + service_i, evaluated in closed
    form as S_i + max_{j<=i}(due_j - S_{j-1}) with S the cumulative
    service time.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    arrival = np.asarray(arrival, dtype=float)
    service = np.asarray(service, dtype=float)
    if arrival.shape != service.shape or arrival.ndim != 1:
        raise ValueError("arrival and service must be 1-D and equal length")
    if len(arrival) == 0:
        return np.zeros(0)
    due = (arrival - arrival[0]) / rate
    done = np.cumsum(service)
    finish = done + np.maximum.accumulate(due - (done - service))
    return finish - due


def pooled_latency(passes, rate: float) -> np.ndarray:
    """Latencies of the solve-triggering events of every pass.

    Each pass is (arrival, service, is_solve) and replays on its own
    queue, because every pass starts a fresh estimator.
    """
    out = [queued_latency(a, s, rate)[np.asarray(m, dtype=bool)]
           for a, s, m in passes]
    return np.concatenate(out) if out else np.zeros(0)


def latency_percentile(passes, rate: float, q: float) -> float:
    lat = pooled_latency(passes, rate)
    if len(lat) == 0:
        raise ValueError("no solve-triggering events")
    return float(np.percentile(lat, q))


def max_rate(passes, limit_s: float, q: float = 99.0,
             lo: float = 1e-3, hi: float = 1e3, iterations: int = 60) -> float:
    """Highest replay rate (multiple of real time) at which the q-th
    percentile of queued latency stays within limit_s.

    Latency never falls as the rate rises, so the answer is found by
    bisection in log space between lo and hi.  Returns 0.0 when even the
    lowest rate misses the limit (the service times alone exceed it) and
    hi when the highest rate meets it.
    """
    def meets(rate: float) -> bool:
        return latency_percentile(passes, rate, q) <= limit_s

    if not meets(lo):
        return 0.0
    if meets(hi):
        return hi
    for _ in range(iterations):
        mid = float(np.sqrt(lo * hi))
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo


def miss_fraction(passes, rate: float, limit_s: float) -> float:
    """Share of solve-triggering events whose queued latency exceeds
    limit_s at the given replay rate."""
    lat = pooled_latency(passes, rate)
    if len(lat) == 0:
        raise ValueError("no solve-triggering events")
    return float(np.mean(lat > limit_s))


def capacity_rate(passes) -> float:
    """Highest replay rate without a growing backlog: seconds of log per
    second of service, over every event of every pass."""
    log_s = sum(float(a[-1] - a[0]) for a, _, _ in passes if len(a))
    busy_s = sum(float(np.sum(s)) for _, s, _ in passes)
    if busy_s <= 0:
        raise ValueError("no service time recorded")
    return log_s / busy_s
