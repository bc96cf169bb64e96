"""Replay passes, the timing and tracing around them, and the metrics.

Everything here observes the program from outside: the untraced run
wraps only mhe.Estimator.process_event (one perf_counter pair per event),
the traced run wraps each layer's public functions (see LAYERS).  The
estimator instance of each pass is captured from its constructor so that
its rows, counters and solve reports can be read even when the replay
aborts.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from perfbench import gate, spans, vqueue
from radgrip import cli, mhe, radar, tire, zupt
from radgrip.core import EstimatorError, event_time, load_config

E2E_UNITS = {
    "setup_s": "s",
    "replay_rtf": "ratio",
    "solve_latency_p50_ms": "ms",
    "solve_latency_p99_ms": "ms",
    "sustain_rate_x": "x",
    "vx_rmse": "m/s",
    "vy_rmse": "m/s",
    "alpha_f_rmse": "rad",
    "alpha_r_rmse": "rad",
    "fyf_rmse": "N",
    "fyr_rmse": "N",
    "bcd_conv_s": "s",
    "peak_rss_mb": "MB",
}

ACCURACY_METRICS = ("vx_rmse", "vy_rmse", "alpha_f_rmse", "alpha_r_rmse",
                    "fyf_rmse", "fyr_rmse", "bcd_conv_s")

# (owner, attribute, span name[, starts a new event]); names imported
# into another module are patched where they are looked up
LAYERS = (
    (cli, "cmd_estimate", "cli.cmd_estimate"),
    (cli, "parse_event", "core.parse_event", True),
    (mhe.Estimator, "process_event", "mhe.Estimator.process_event"),
    (mhe.Estimator, "finalize", "mhe.Estimator.finalize"),
    (mhe.SlidingWindow, "push_state", "mhe.SlidingWindow.push_state"),
    (mhe, "solve", "mhe.solve"),
    (mhe, "solve_problem", "mhe.solve_problem"),
    (mhe.WindowProblem, "__init__", "mhe.WindowProblem.init"),
    (mhe.WindowProblem, "residuals", "mhe.WindowProblem.residuals"),
    (mhe.WindowProblem, "jacobian", "mhe.WindowProblem.jacobian"),
    (mhe, "cho_factor", "mhe.factor"),
    (mhe, "cho_solve", "mhe.factor"),
    (mhe, "predict_array", "motion.predict_array"),
    (radar, "scan_to_factors", "radar.scan_to_factors"),
    (zupt, "estimate_attitude", "zupt.estimate_attitude"),
    (zupt, "update_standstill", "zupt.update_standstill"),
    (tire, "magic_formula_values", "tire.magic_formula_values"),
    (tire, "magic_formula_derivs", "tire.magic_formula_derivs"),
)

TERMINATIONS = ("max_time", "max_iterations", "step_tol", "gradient_tol")

# per-layer metrics printed by the traced run; counts and times are per
# pass over the workload log
PER_LAYER_UNITS = {
    "core.parse_event.calls": "count",
    "core.parse_event.ms": "ms",
    "cli.cmd_estimate.self_ms": "ms",
    "mhe.Estimator.process_event.calls": "count",
    "mhe.Estimator.process_event.self_ms": "ms",
    "mhe.SlidingWindow.push_state.ms": "ms",
    "mhe.solve.calls": "count",
    "mhe.solve.self_ms": "ms",
    "mhe.solve.p50_ms": "ms",
    "mhe.solve.p99_ms": "ms",
    "mhe.WindowProblem.init.ms": "ms",
    "mhe.WindowProblem.residuals.calls": "count",
    "mhe.WindowProblem.residuals.ms": "ms",
    "mhe.WindowProblem.jacobian.calls": "count",
    "mhe.WindowProblem.jacobian.ms": "ms",
    "mhe.factor.calls": "count",
    "mhe.factor.ms": "ms",
    "mhe.solve_problem.self_ms": "ms",
    "mhe.iterations.per_solve": "count",
    "mhe.termination.max_time": "count",
    "mhe.termination.max_iterations": "count",
    "mhe.termination.step_tol": "count",
    "mhe.termination.gradient_tol": "count",
    "mhe.window.states_mean": "count",
    "mhe.window.doppler_rows_mean": "count",
    "mhe.solves.watchdog": "count",
    "radar.scan_to_factors.calls": "count",
    "radar.scan_to_factors.ms": "ms",
    "radar.points.accepted": "count",
    "radar.points.rejected": "count",
    "radar.accept_ratio": "ratio",
    "zupt.estimate_attitude.calls": "count",
    "zupt.estimate_attitude.ms": "ms",
    "zupt.update_standstill.calls": "count",
    "zupt.update_standstill.ms": "ms",
    "zupt.zv_states": "count",
    "tire.magic_formula_values.calls": "count",
    "tire.magic_formula_values.ms": "ms",
    "tire.magic_formula_derivs.calls": "count",
    "tire.magic_formula_derivs.ms": "ms",
    "motion.predict_array.calls": "count",
    "motion.predict_array.ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}

# printed and stored with every untraced run but not gated: at the seed
# the first is exactly 0 and the second saturated (see README.md)
INFO_UNITS = {"max_rate_x": "x", "deadline_miss_frac": "ratio"}

# latency is also reported at these fixed replay rates (multiples of
# real time), for reference
INFO_RATES = (0.25, 0.5, 1.0)


class ServiceRecorder:
    """Arrival time, service time and solve flag of every event."""

    def __init__(self):
        self.arrival: list[float] = []
        self.service: list[float] = []
        self.solve: list[bool] = []

    @contextlib.contextmanager
    def patched(self):
        orig = mhe.Estimator.__dict__["process_event"]
        perf = time.perf_counter
        arrival, service, solve = (self.arrival.append, self.service.append,
                                   self.solve.append)

        def process_event(est, ev):
            n = len(est.reports)
            t0 = perf()
            orig(est, ev)
            t1 = perf()
            service(t1 - t0)
            solve(len(est.reports) != n)
            arrival(event_time(ev))

        mhe.Estimator.process_event = process_event
        try:
            yield self
        finally:
            mhe.Estimator.process_event = orig

    def arrays(self):
        return (np.array(self.arrival), np.array(self.service),
                np.array(self.solve, dtype=bool))


@contextlib.contextmanager
def captured_estimators(holder: list):
    orig = mhe.Estimator.__dict__["__init__"]

    def init(est, *args, **kwargs):
        holder.append(est)
        orig(est, *args, **kwargs)

    mhe.Estimator.__init__ = init
    try:
        yield holder
    finally:
        mhe.Estimator.__init__ = orig


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


class Log:
    """One generated log of the workload and what the gate expects of it."""

    def __init__(self, wdir: str):
        self.path = os.path.join(wdir, "log.jsonl")
        self.truth = os.path.join(wdir, "truth.csv")
        with open(os.path.join(wdir, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.expected = gate.expected_times(
            self.meta["t_first"], self.meta["t_last"], self.meta["dt"])
        self.seconds = self.meta["t_last"] - self.meta["t_first"]


class Bench:
    """Replays the logs of one workload in turn and applies the
    correctness gate to every pass."""

    def __init__(self, workload: str, seed: int, wdirs: list[str],
                 out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.logs = [Log(d) for d in wdirs]
        self.cfg = load_config(None)
        self.out_csv = os.path.join(out_dir,
                                    f"estimate-{workload}-seed{seed}.csv")
        self.checks: list[gate.RowCheck] = []
        self.accuracy: list[list[dict]] = [[] for _ in self.logs]
        self.estimators: list = []
        self.replayed_s: list[float] = []
        self.failures: list[str] = []

    # -- one pass ---------------------------------------------------------

    def _pass(self, patch, log_index: int | None = None
              ) -> tuple[float, bool]:
        """Replay one log (by default the next in turn) under the given
        patch; returns (wall seconds of cmd_estimate, aborted)."""
        k = len(self.checks)
        if log_index is None:
            log_index = k % len(self.logs)
        log = self.logs[log_index]
        for path in (self.out_csv, self.out_csv + ".summary.json"):
            if os.path.exists(path):
                os.remove(path)
        holder: list = []
        error = None
        gc.collect()
        with captured_estimators(holder), patch:
            t0 = time.perf_counter()
            try:
                cli.cmd_estimate(log.path, None, self.out_csv, quiet=True)
            except Exception as e:  # any abort is a measured failure
                error = e
            wall = time.perf_counter() - t0
        self.estimators.append(holder[-1] if holder else None)
        self.replayed_s.append(log.seconds)
        self._check(k, log_index, holder, error)
        return wall, error is not None

    def _check(self, k: int, log_index: int, holder, error) -> None:
        log = self.logs[log_index]
        acc = None
        if error is None:
            t_rows, finite = gate.read_estimate_rows(self.out_csv)
            try:
                acc = self._accuracy(cli.compute_metrics(
                    self.out_csv, log.truth, self.cfg))
            except EstimatorError as e:
                self.failures.append(f"pass {k}: metrics failed: {e}")
        else:
            traceback.print_exception(error, file=sys.stderr)
            self.failures.append(
                f"pass {k}: replay aborted: {type(error).__name__}: {error}")
            t_rows, finite = gate.memory_rows(holder[-1].rows if holder
                                              else [])
        chk = gate.check_rows(log.expected, t_rows, finite)
        if chk.failed:
            self.failures.append(f"pass {k}: {chk.failed} of "
                                 f"{chk.attempted} rows failed ({chk})")
        if acc is not None:
            bad = gate.accuracy_failures(acc)
            if acc["bcd_conv_s"] is None:
                bad.append("bcd_conv_s=None (tire parameters never settled)")
            if bad:
                self.failures.append(f"pass {k}: accuracy: {bad}")
            self.accuracy[log_index].append(acc)
        self.checks.append(chk)

    @staticmethod
    def _accuracy(report) -> dict:
        ch = report.channels
        return {
            "vx_rmse": ch["vx"]["rmse"],
            "vy_rmse": ch["vy"]["rmse"],
            "alpha_f_rmse": ch["alpha_f"]["rmse"],
            "alpha_r_rmse": ch["alpha_r"]["rmse"],
            "fyf_rmse": ch["Fyf"]["rmse"],
            "fyr_rmse": ch["Fyr"]["rmse"],
            "bcd_conv_s": report.param_convergence_time,
        }

    def _accuracy_summary(self) -> dict:
        """Median over the passes of each log, then mean over the logs."""
        out = {}
        for name in ACCURACY_METRICS:
            per_log = []
            for passes in self.accuracy:
                vals = [a[name] for a in passes if a[name] is not None]
                if vals:
                    per_log.append(statistics.median(vals))
            out[name] = (statistics.fmean(per_log)
                         if len(per_log) == len(self.logs) else math.nan)
        return out

    def _result(self, metrics: dict, info: dict) -> dict:
        correct = not self.failures and bool(metrics) and all(
            math.isfinite(v["value"]) for v in metrics.values())
        return {
            "correct": correct,
            "attempted": sum(c.attempted for c in self.checks),
            "failed": sum(c.failed for c in self.checks),
            "metrics": metrics,
            "info": info,
            "failures": self.failures,
            "row_checks": [vars(c) for c in self.checks],
            "accuracy_per_pass": self.accuracy,
            "logs": [log.meta for log in self.logs],
        }

    # -- untraced run: end-to-end metrics ---------------------------------

    def run_untraced(self, seconds: float, min_solves: int,
                     deadline_s: float, setup: list[float]) -> dict:
        """Passes until `seconds` have elapsed, every log has been
        replayed and min_solves solves have been timed."""
        passes, walls = [], []
        t_start = time.perf_counter()
        while True:
            rec = ServiceRecorder()
            wall, aborted = self._pass(rec.patched())
            passes.append(rec.arrays())
            walls.append(wall)
            solves = sum(int(m.sum()) for _, _, m in passes)
            if aborted or not passes[-1][2].any():
                break
            if (time.perf_counter() - t_start >= seconds
                    and solves >= min_solves
                    and len(passes) >= len(self.logs)):
                break
        if solves < min_solves:
            self.failures.append(f"only {solves} solves timed "
                                 f"(need {min_solves})")
        if solves == 0:
            return self._result({}, {"passes": len(passes)})
        solve_s = np.concatenate([s[m] for _, s, m in passes])
        values = {
            "setup_s": statistics.median(setup),
            "replay_rtf": sum(walls) / sum(self.replayed_s),
            "solve_latency_p50_ms": np.percentile(solve_s, 50) * 1e3,
            "solve_latency_p99_ms": np.percentile(solve_s, 99) * 1e3,
            "sustain_rate_x": vqueue.capacity_rate(passes),
            **self._accuracy_summary(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(values[k], u) for k, u in E2E_UNITS.items()}
        info = {
            "passes": len(passes),
            "solves": solves,
            "events": sum(len(a) for a, _, _ in passes),
            "log_s_replayed": sum(self.replayed_s),
            "pass_wall_s": walls,
            "setup_s_samples": setup,
            "max_rate_x": vqueue.max_rate(passes, deadline_s),
            "deadline_miss_frac": vqueue.miss_fraction(passes, 1.0,
                                                       deadline_s),
            "queued_latency_p99_ms": {
                str(r): vqueue.latency_percentile(passes, r, 99) * 1e3
                for r in INFO_RATES},
            "terminations": self._terminations(),
        }
        return self._result(metrics, info)

    def _terminations(self) -> dict:
        out = dict.fromkeys(TERMINATIONS, 0)
        for est in self.estimators:
            for rep in (est.reports if est is not None else []):
                out[rep.termination] = out.get(rep.termination, 0) + 1
        return out

    # -- traced run: per-layer metrics ------------------------------------

    def run_traced(self, seconds: float) -> dict:
        """Pairs of passes over the same log, untraced then traced, until
        the traced passes have taken `seconds` and every log has been
        traced.  The untraced twin of each traced pass is the reference
        for the tracing overhead."""
        untraced, tracers, walls, traced_est = [], [], [], []
        aborted = False
        while not aborted:
            i = len(tracers) % len(self.logs)
            wall_u, aborted = self._pass(contextlib.nullcontext(), i)
            if aborted:
                break
            tr = spans.Tracer()
            wall, aborted = self._pass(spans.patched(tr, LAYERS), i)
            untraced.append(wall_u)
            tracers.append(tr)
            walls.append(wall)
            traced_est.append(self.estimators[-1])
            if sum(walls) >= seconds and len(tracers) >= len(self.logs):
                break
        if not tracers or any(e is None for e in self.estimators):
            return self._result({}, {"passes": len(tracers)})
        path = os.path.join(self.out_dir,
                            f"spans-{self.workload}-seed{self.seed}.csv.gz")
        spans.write_spans(path, tracers)
        values, info = layer_metrics(tracers, walls, traced_est)
        values["trace.overhead_frac"] = sum(walls) / sum(untraced) - 1.0
        metrics = {k: _metric(values[k], u)
                   for k, u in PER_LAYER_UNITS.items()}
        info.update({"passes": len(tracers),
                     "spans_file": os.path.basename(path),
                     "untraced_pass_wall_s": untraced,
                     "traced_pass_wall_s": walls})
        return self._result(metrics, info)


def layer_metrics(tracers, walls, estimators) -> tuple[dict, dict]:
    """Per-pass averages of span counts and self times, plus the
    estimator's own counts."""
    n = len(tracers)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    solve_ms: list[float] = []
    unaccounted = 0.0
    for tr, wall in zip(tracers, walls):
        st = tr.self_times()
        for i, name in enumerate(tr.name):
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + st[i] * 1e3
            if name == "mhe.solve":
                solve_ms.append((tr.end[i] - tr.start[i]) * 1e3)
        unaccounted += wall - float(np.sum(st))
    v = {}
    for name in calls:
        v[f"{name}.calls"] = calls[name] / n
        v[f"{name}.ms"] = self_ms[name] / n
    for name in ("cli.cmd_estimate", "mhe.solve", "mhe.solve_problem",
                 "mhe.Estimator.process_event"):
        v[f"{name}.self_ms"] = v.pop(f"{name}.ms", 0.0)
    for name in PER_LAYER_UNITS:
        if name.endswith((".calls", ".ms")) and name not in v:
            v[name] = 0.0
    v["mhe.solve.p50_ms"] = float(np.percentile(solve_ms, 50)) \
        if solve_ms else 0.0
    v["mhe.solve.p99_ms"] = float(np.percentile(solve_ms, 99)) \
        if solve_ms else 0.0

    reports = [r for est in estimators for r in est.reports]
    counters = [est.counters for est in estimators]
    for term in TERMINATIONS:
        v[f"mhe.termination.{term}"] = sum(
            r.termination == term for r in reports) / n
    nrep = max(len(reports), 1)
    v["mhe.iterations.per_solve"] = sum(r.iterations for r in reports) / nrep
    v["mhe.window.states_mean"] = sum(r.n_states for r in reports) / nrep
    v["mhe.window.doppler_rows_mean"] = \
        sum(r.n_doppler for r in reports) / nrep
    v["mhe.solves.watchdog"] = sum(c["watchdog_solves"] for c in counters) / n
    acc = sum(c["doppler_accepted"] for c in counters)
    rej = sum(c["doppler_rejected"] for c in counters)
    v["radar.points.accepted"] = acc / n
    v["radar.points.rejected"] = rej / n
    v["radar.accept_ratio"] = acc / max(acc + rej, 1)
    v["zupt.zv_states"] = sum(c["zv_states"] for c in counters) / n
    v["trace.unaccounted_frac"] = unaccounted / sum(walls)
    info = {
        "mhe.solve.samples": len(solve_ms),
        "radar.accept_ratio.base_points": (acc + rej) / n,
        "spans_per_pass": sum(len(t) for t in tracers) / n,
        "other_layers": {k: x for k, x in v.items()
                         if k not in PER_LAYER_UNITS},
    }
    return v, info


def environment(inherited: dict, blas_threads: int | None) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"
        return f"{b.get('name')} {b.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_env_cleared": inherited,
        "blas_threads_pinned": blas_threads,
        "reference_only": blas_threads is not None,
        "platform": platform.platform(),
    }


def print_report(result: dict) -> None:
    run, env = result["run"], result["environment"]
    print(f"workload {run['workload']} seed {run['seed']} "
          f"trace {run['trace']}: nproc {env['nproc']}, "
          f"numpy {env['numpy']} ({env['numpy_blas']}), "
          f"scipy {env['scipy']} ({env['scipy_blas']}), "
          f"BLAS env cleared {env['blas_env_cleared'] or 'none set'}, "
          f"pinned threads {env['blas_threads_pinned']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    info = result["info"]
    for key, unit in INFO_UNITS.items():
        if key in info:
            print(f"  {key:<40} {info[key]:>14.6g} {unit} (info, not gated)")
    for key in ("passes", "solves", "queued_latency_p99_ms", "terminations",
                "mhe.solve.samples", "radar.accept_ratio.base_points"):
        if key in info:
            print(f"  info {key}: {info[key]}")
    print(f"  rows: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}", file=sys.stderr)
