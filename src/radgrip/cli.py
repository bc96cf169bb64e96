"""Command-line entry points: `sim` generates scenario logs, `estimate`
replays a log through the estimator, `metrics` scores an estimate CSV
against a truth CSV and reads no other file, and `bench` times the solver.

Exit codes: 0 success, 1 usage, 2 I/O or unusable input file, 3 numeric or
estimation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from radgrip import mhe, simgen, tire
from radgrip.core import (ConfigError, EstimatorError, IoError, ParseError,
                          RangeError, SchemaError, UsageError, VehicleConfig,
                          config_hash, load_config, parse_event,
                          serialize_event)

# the output CSVs hold the fields of their records, in order
ESTIMATE_CSV_COLUMNS = mhe.OutputRow._fields
TRUTH_CSV_COLUMNS = tuple(f.name for f in fields(simgen.TruthTrajectory))


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.10g}"


def _csv_lines(columns: tuple, rows):
    """A header line of ``columns``, then one line per row of values."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


def _write_csv(path: str, columns: tuple, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_lines(columns, rows))


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def cmd_sim(scenario: str, config_path: str | None, seed: int,
            out_dir: str) -> dict:
    """Generate one preset scenario; writes log, truth and a manifest."""
    if seed < 0:
        raise UsageError("seed must be >= 0")
    cfg = load_config(config_path)
    try:
        spec = simgen.make_scenario(scenario, cfg, seed=seed)
    except KeyError:
        raise UsageError(
            f"unknown scenario {scenario!r}; presets: "
            + ", ".join(simgen.PRESETS))
    events, truth = simgen.run_scenario(spec.script, spec.p_truth,
                                        spec.noise, cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, f"{scenario}_log.jsonl")
        truth_path = os.path.join(out_dir, f"{scenario}_truth.csv")
        manifest_path = os.path.join(out_dir, f"{scenario}_manifest.json")
        with open(log_path, "w", encoding="utf-8") as fh:
            for ev in events:
                fh.write(serialize_event(ev) + "\n")
        write_truth_csv(truth_path, truth, cfg.thresholds.dt)
        manifest = {
            "scenario": scenario,
            "seed": seed,
            "config_sha256": config_hash(cfg),
            "log": os.path.basename(log_path),
            "truth": os.path.basename(truth_path),
            "events": len(events),
            "duration_s": float(truth.t[-1]),
            "p_truth": tire.axles(spec.p_truth).tolist(),
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"cannot write outputs to {out_dir!r}: {e}") from e
    return manifest


def write_truth_csv(path: str, truth: simgen.TruthTrajectory,
                    dt: float) -> None:
    """Write the truth signals every ``dt`` seconds."""
    stride = max(1, int(round(dt / simgen.DT_SIM)))
    _write_csv(path, TRUTH_CSV_COLUMNS,
               zip(*(getattr(truth, c)[::stride] for c in TRUTH_CSV_COLUMNS)))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def read_events(path: str):
    """Yield events from a JSONL log, reporting errors with line numbers.
    Bytes that are not UTF-8 decode to lone surrogates, which the line's
    encode check turns into a ParseError naming that line."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as e:
        raise IoError(f"cannot read log {path!r}: {e}") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                yield parse_event(line)
            except UnicodeEncodeError as e:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8 at "
                                 f"column {e.start + 1}") from e
            except (ParseError, SchemaError, RangeError) as e:
                raise type(e)(f"{path}:{lineno}: {e}") from e


def solve_time_stats(reports) -> dict:
    """Wall-time statistics, the largest iteration count and the
    termination histogram of a sequence of solve reports."""
    if not reports:
        return {"count": 0}
    wt = np.array([r.wall_time for r in reports])
    its = np.array([r.iterations for r in reports])
    return {
        "count": int(len(wt)),
        "mean_ms": float(wt.mean() * 1e3),
        "p50_ms": float(np.percentile(wt, 50) * 1e3),
        "p99_ms": float(np.percentile(wt, 99) * 1e3),
        "max_ms": float(wt.max() * 1e3),
        "max_iterations": int(its.max()),
        "terminations": dict(Counter(r.termination for r in reports)),
    }


def cmd_estimate(log_path: str, config_path: str | None, out_csv: str,
                 quiet: bool = False) -> mhe.Estimator:
    """Replay a log in arrival order, writing one row per 10 ms state."""
    cfg = load_config(config_path)
    est = mhe.replay_events(read_events(log_path), cfg)
    try:
        _write_csv(out_csv, ESTIMATE_CSV_COLUMNS, est.rows)
        summary = {
            "log": os.path.basename(log_path),
            "config_sha256": config_hash(cfg),
            "rows": len(est.rows),
            "counters": est.counters,
            "solve_time": solve_time_stats(est.reports),
        }
        with open(out_csv + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"cannot write estimate CSV {out_csv!r}: {e}") from e
    if not est.counters["zv_states"]:
        print("warning: biases unverified (log has no standstill preamble)",
              file=sys.stderr)
    if not quiet:
        st = summary["solve_time"]
        if st.get("count"):
            print(f"{len(est.rows)} rows, {st['count']} solves, "
                  f"mean {st['mean_ms']:.2f} ms, p99 {st['p99_ms']:.2f} ms, "
                  f"max {st['max_ms']:.2f} ms, "
                  f"max iterations {st['max_iterations']}")
        else:
            print(f"{len(est.rows)} rows, no solves triggered")
    return est


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    channels: dict              # name -> {max_abs_err, rmse, samples}
    param_convergence_time: float | None


# (channel, scored only above the lateral-force speed gate)
_METRIC_CHANNELS = (("vx", False), ("vy", False), ("alpha_f", True),
                    ("alpha_r", True), ("Fyf", True), ("Fyr", True))


def _read_csv(path: str, required: tuple) -> dict:
    """Columns of a CSV as float arrays, empty cells NaN.  Raises
    SchemaError naming the file and the column when a required column is
    missing or a cell is not a number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise IoError(f"cannot read CSV {path!r}: {e}") from e
    cols = {}
    for j, name in enumerate(header):
        vals = [(r[j] if j < len(r) else "") for r in rows]
        try:
            cols[name] = np.array(
                [float(v) if v else np.nan for v in vals])
        except ValueError as e:
            raise SchemaError(f"{path}: column {name!r}: {e}") from e
    for name in required:
        if name not in cols:
            raise SchemaError(f"{path}: missing column {name!r}")
    return cols


def compute_metrics(est_csv: str, truth_csv: str,
                    cfg: VehicleConfig) -> MetricsReport:
    """Nearest-neighbour alignment within 5 ms, then per-channel errors.

    Reads only its two CSVs; estimate and bench report solve timing.  Slip
    and force channels are scored only where the truth speed exceeds the
    gate and the estimate emitted a value; velocities everywhere.
    """
    names = ("t", *(name for name, _ in _METRIC_CHANNELS))
    est = _read_csv(est_csv, (*names, "BCD_f", "BCD_r"))
    tru = _read_csv(truth_csv, names)
    te, tt = est["t"], tru["t"]
    for path, t in ((est_csv, te), (truth_csv, tt)):
        if not len(t):
            raise SchemaError(f"{path}: no data rows")
    idx = np.searchsorted(tt, te)
    idx = np.clip(idx, 0, len(tt) - 1)
    idx_lo = np.clip(idx - 1, 0, len(tt) - 1)
    use_lo = np.abs(tt[idx_lo] - te) < np.abs(tt[idx] - te)
    idx = np.where(use_lo, idx_lo, idx)
    ok = np.abs(tt[idx] - te) <= 5e-3
    if not np.any(ok):
        raise SchemaError(f"{est_csv}: no row within 5 ms of a row of "
                          f"{truth_csv}")
    idx = idx[ok]
    speed_ok = np.hypot(tru["vx"][idx], tru["vy"][idx]) \
        > cfg.thresholds.V_Fy_min
    channels = {}
    for name, gated in _METRIC_CHANNELS:
        e = est[name][ok]
        t_ = tru[name][idx]
        mask = np.isfinite(e) & np.isfinite(t_)
        if gated:
            mask &= speed_ok
        if not np.any(mask):
            channels[name] = {"max_abs_err": None, "rmse": None,
                              "samples": 0}
            continue
        err = e[mask] - t_[mask]
        channels[name] = {
            "max_abs_err": float(np.abs(err).max()),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "samples": int(mask.sum()),
        }
    return MetricsReport(channels, _param_convergence_time(est))


def _param_convergence_time(est: dict) -> float | None:
    """Earliest time after which both BCD channels stay within 5 percent
    of their final (last finite) values; rows where a channel is NaN are
    ignored, and a channel with no value gives None."""
    t = est["t"]
    conv = t[0]
    for name in ("BCD_f", "BCD_r"):
        v = est[name]
        fin = np.flatnonzero(np.isfinite(v))
        if not len(fin):
            return None
        final = v[fin[-1]]
        bad = fin[np.abs(v[fin] - final) > 0.05 * abs(final) + 1e-12]
        if len(bad):
            conv = max(conv, t[bad[-1] + 1])
    return float(conv)


def cmd_metrics(est_csv: str, truth_csv: str, config_path: str | None,
                json_out: str | None = None) -> MetricsReport:
    cfg = load_config(config_path)
    report = compute_metrics(est_csv, truth_csv, cfg)
    print(f"{'channel':<10}{'max_abs_err':>14}{'rmse':>14}{'samples':>10}")
    for name, ch in report.channels.items():
        mx = "n/a" if ch["max_abs_err"] is None else f"{ch['max_abs_err']:.5g}"
        rm = "n/a" if ch["rmse"] is None else f"{ch['rmse']:.5g}"
        print(f"{name:<10}{mx:>14}{rm:>14}{ch['samples']:>10}")
    conv = report.param_convergence_time
    print(f"param convergence time: "
          f"{'n/a' if conv is None else f'{conv:.2f} s'}")
    if json_out:
        try:
            with open(json_out, "w", encoding="utf-8") as fh:
                json.dump(asdict(report), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise IoError(f"cannot write {json_out!r}: {e}") from e
    return report


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(log_path: str, config_path: str | None,
              repetitions: int) -> dict:
    """Re-run the estimation pipeline, timing every solve.  Raises
    EstimatorError naming the first solve whose final cost differs between
    repetitions: the estimate must not depend on the clock or the load.
    cost_sha256 is the SHA-256 of repr of repetition 0's final costs, and
    rows_sha256 that of its estimate CSV as cmd_estimate writes it."""
    if repetitions < 1:
        raise UsageError("repetitions must be >= 1")
    cfg = load_config(config_path)
    events = list(read_events(log_path))
    reports, costs, tick_means = [], [], []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        est = mhe.replay_events(events, cfg)
        tick_means.append((time.perf_counter() - t0) / max(len(est.rows), 1))
        reports.extend(est.reports)
        if not costs:
            csv = "".join(_csv_lines(ESTIMATE_CSV_COLUMNS, est.rows))
        costs.append([r.final_cost for r in est.reports])
    st = solve_time_stats(reports)
    out = {
        "repetitions": repetitions,
        "solves_per_rep": len(costs[0]),
        "solve_time": st,
        "per_tick_mean_ms": float(np.mean(tick_means) * 1e3),
        "cost_sha256": hashlib.sha256(repr(costs[0]).encode()).hexdigest(),
        "rows_sha256": hashlib.sha256(csv.encode()).hexdigest(),
    }
    if st["count"]:
        print(f"{st['count']} solves over {repetitions} reps: "
              f"mean {st['mean_ms']:.3f} ms, p50 {st['p50_ms']:.3f} ms, "
              f"p99 {st['p99_ms']:.3f} ms, max {st['max_ms']:.3f} ms; "
              f"terminations {st['terminations']}")
    print(f"per-tick mean {out['per_tick_mean_ms']:.3f} ms; "
          f"cost sha256 {out['cost_sha256']}; "
          f"rows sha256 {out['rows_sha256']}")
    for rep, run in enumerate(costs[1:], start=1):
        if run != costs[0]:
            i = next((i for i, (a, b) in enumerate(zip(costs[0], run))
                      if a != b), min(len(run), len(costs[0])))
            raise EstimatorError(
                f"cost trajectories differ across repetitions: solve {i} "
                f"of repetition {rep} differs from repetition 0")
    return out


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="radgrip")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sim", help="generate a scenario log")
    ps.add_argument("scenario")
    ps.add_argument("--config", default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=".")

    pe = sub.add_parser("estimate", help="replay a log through the estimator")
    pe.add_argument("log")
    pe.add_argument("--config", default=None)
    pe.add_argument("--out", default="estimate.csv")

    pm = sub.add_parser("metrics", help="score an estimate against truth")
    pm.add_argument("estimate_csv")
    pm.add_argument("truth_csv")
    pm.add_argument("--config", default=None)
    pm.add_argument("--json", default=None)

    pb = sub.add_parser("bench", help="time the solver on a log")
    pb.add_argument("log")
    pb.add_argument("--config", default=None)
    pb.add_argument("--repetitions", type=int, default=3)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sim":
            cmd_sim(args.scenario, args.config, args.seed, args.out)
        elif args.command == "estimate":
            cmd_estimate(args.log, args.config, args.out)
        elif args.command == "metrics":
            cmd_metrics(args.estimate_csv, args.truth_csv, args.config,
                        json_out=args.json)
        elif args.command == "bench":
            cmd_bench(args.log, args.config, args.repetitions)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (IoError, ParseError, SchemaError, RangeError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EstimatorError as e:
        print(f"estimation error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
