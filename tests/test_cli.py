import gzip
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from radgrip import cli, mhe, simgen
from radgrip.core import ImuSample, default_config, serialize_event

LOG_3S = os.path.join(os.path.dirname(__file__), "data",
                      "dlc65_outliers_3s.jsonl.gz")


def test_sim_estimate_metrics_round_trip(tmp_path):
    out = str(tmp_path)
    assert cli.main(["sim", "standstill", "--seed", "0", "--out", out]) == 0
    log = os.path.join(out, "standstill_log.jsonl")
    truth = os.path.join(out, "standstill_truth.csv")
    with open(os.path.join(out, "standstill_manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["log"] == os.path.basename(log)
    assert manifest["truth"] == os.path.basename(truth)
    with open(log) as fh:
        assert sum(1 for _ in fh) == manifest["events"]
    spec = simgen.make_scenario("standstill", default_config(), seed=0)
    assert manifest["p_truth"] == [spec.p_truth[:6].tolist(),
                                   spec.p_truth[6:].tolist()]

    est_csv = os.path.join(out, "est.csv")
    assert cli.main(["estimate", log, "--out", est_csv]) == 0
    with open(est_csv + ".summary.json") as fh:
        summary = json.load(fh)
    with open(est_csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(cli.ESTIMATE_CSV_COLUMNS)
    assert len(lines) - 1 == summary["rows"] > 0
    assert summary["solve_time"]["count"] == summary["counters"]["solves"]

    metrics_json = os.path.join(out, "metrics.json")
    assert cli.main(["metrics", est_csv, truth, "--json", metrics_json]) == 0
    with open(metrics_json) as fh:
        metrics = json.load(fh)
    assert metrics["channels"]["vx"]["samples"] > 0
    assert metrics["channels"]["vx"]["rmse"] < 0.05


def test_sim_and_estimate_share_the_configured_gravity(tmp_path):
    # the simulated IMU reads the config's g at rest, so the standstill
    # is detected and its ZUPT states pin the accel biases (0.15, 0.15)
    out = str(tmp_path)
    config = os.path.join(out, "g.yaml")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("g: 9.5\n")
    assert cli.main(["sim", "standstill", "--config", config,
                     "--out", out]) == 0
    est_csv = os.path.join(out, "est.csv")
    assert cli.main(["estimate", os.path.join(out, "standstill_log.jsonl"),
                     "--config", config, "--out", est_csv]) == 0
    with open(est_csv + ".summary.json") as fh:
        assert json.load(fh)["counters"]["zv_states"] > 0
    est = cli._read_csv(est_csv, ("bx", "by"))
    assert est["bx"][-1] == pytest.approx(0.15, abs=0.02)
    assert est["by"][-1] == pytest.approx(0.15, abs=0.02)


def test_param_convergence_time_on_a_hand_made_table():
    nan = np.nan
    # each channel is last outside the 5 % band of its last finite value
    # (10 and 20) at t = 1.0 and t = 0.5, so both have settled from the
    # next row, t = 1.5; NaN rows are skipped
    est = {"t": np.arange(6) * 0.5,
           "BCD_f": np.array([5.0, 9.0, 11.0, nan, 10.2, 10.0]),
           "BCD_r": np.array([nan, 15.0, 20.5, 20.1, 20.0, nan])}
    assert cli._param_convergence_time(est) == 1.5
    est["BCD_r"][:] = nan
    assert cli._param_convergence_time(est) is None


def test_usage_errors_exit_1(tmp_path):
    assert cli.main(["sim", "no_such_scenario", "--out", str(tmp_path)]) == 1
    assert cli.main(["bench", "unused.jsonl", "--repetitions", "0"]) == 1
    assert cli.main(["sim", "standstill", "--seed", "-1",
                     "--out", str(tmp_path)]) == 1


def test_python_m_radgrip_runs_the_cli():
    # the package's entry point: a usage error exits 1, --help exits 0
    # naming the four commands
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "radgrip", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    bare = run()
    assert bare.returncode == 1 and "usage error:" in bare.stderr
    helped = run("--help")
    assert helped.returncode == 0
    assert "{sim,estimate,metrics,bench}" in helped.stdout


def test_missing_log_exits_2(tmp_path):
    missing = os.path.join(str(tmp_path), "missing.jsonl")
    out = os.path.join(str(tmp_path), "est.csv")
    assert cli.main(["estimate", missing, "--out", out]) == 2


def test_malformed_line_exits_2_naming_its_line(tmp_path, capsys):
    log = os.path.join(str(tmp_path), "log.jsonl")
    out = os.path.join(str(tmp_path), "est.csv")
    # bad JSON, a time too large for a float, and bytes that are not UTF-8
    for bad in (b"{not json",
                b'{"type":"imu","t":' + b"1" * 401 + b',"ax":0,"ay":0,"r":0}',
                b"\xff\xfe"):
        with open(log, "wb") as fh:
            fh.write(serialize_event(ImuSample(0.0, 0.0, 0.0, 0.0)).encode()
                     + b"\n" + bad + b"\n")
        assert cli.main(["estimate", log, "--out", out]) == 2
        assert f"{log}:2:" in capsys.readouterr().err


def _lines_3s():
    with gzip.open(LOG_3S, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def _estimate(tmp_path, name, lines):
    """(CSV bytes, counters) of `radgrip estimate` on a log of lines."""
    log = os.path.join(str(tmp_path), f"{name}.jsonl")
    with open(log, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    csv = os.path.join(str(tmp_path), f"{name}.csv")
    assert cli.main(["estimate", log, "--out", csv]) == 0
    with open(csv, "rb") as fh, open(csv + ".summary.json") as fs:
        return fh.read(), json.load(fs)["counters"]


@pytest.fixture(scope="module")
def unmodified_3s(tmp_path_factory):
    """(log path, estimate CSV bytes, SHA-256 of repr of the final costs,
    counters) of the 3 s log as it is, from one cmd_estimate call per
    module."""
    out = str(tmp_path_factory.mktemp("unmodified"))
    log = os.path.join(out, "log.jsonl")
    with open(log, "w", encoding="utf-8") as fh:
        fh.writelines(_lines_3s())
    csv = os.path.join(out, "est.csv")
    est = cli.cmd_estimate(log, None, csv, quiet=True)
    costs = repr([r.final_cost for r in est.reports])
    with open(csv, "rb") as fh:
        return (log, fh.read(), hashlib.sha256(costs.encode()).hexdigest(),
                est.counters)


def test_unknown_radar_scan_is_counted_and_dropped(tmp_path):
    lines = _lines_3s()
    i = [k for k, line in enumerate(lines) if '"radar"' in line][100]
    rec = json.loads(lines[i])
    rec["radar_id"] = 7
    unknown = lines[:i] + [json.dumps(rec) + "\n"] + lines[i + 1:]
    csv, counters = _estimate(tmp_path, "unknown", unknown)
    assert counters["unknown_radar_scans"] == 1
    assert csv == _estimate(tmp_path, "absent", lines[:i] + lines[i + 1:])[0]


def _late_imu(lines):
    """The IMU sample at t = 2 s moved 3 samples later, and the log without
    it."""
    imu = [k for k, line in enumerate(lines)
           if json.loads(line)["type"] == "imu"]
    n = next(n for n, k in enumerate(imu) if json.loads(lines[k])["t"] >= 2.0)
    i, j = imu[n], imu[n + 3]
    without = lines[:i] + lines[i + 1:]
    return without[:j] + [lines[i]] + without[j:], without


def _stale_steering(lines):
    """The steering sample at t = 0.5 s sent again after the one at
    t = 2 s, and the log as it is."""
    steer = [k for k, line in enumerate(lines)
             if json.loads(line)["type"] == "steering"]
    at = {json.loads(lines[k])["t"]: k for k in steer}
    k = at[2.0] + 1
    return lines[:k] + [lines[at[0.5]]] + lines[k:], lines


def _stale_imu(lines):
    """The IMU sample at t = 0.5 s sent again after the one at t = 2 s:
    it is both stale and late, and the stale check comes first.  The log
    as it is."""
    imu = {json.loads(line)["t"]: k for k, line in enumerate(lines)
           if json.loads(line)["type"] == "imu"}
    k = imu[2.0] + 1
    return lines[:k] + [lines[imu[0.5]]] + lines[k:], lines


def _late_steering(lines):
    """A steering sample at t = 1.995 s inside the window, sent right after
    the one at t = 2 s, and the log without it."""
    k = next(k for k, line in enumerate(lines)
             if json.loads(line)["type"] == "steering"
             and json.loads(line)["t"] == 2.0) + 1
    late = '{"type":"steering","t":1.995,"delta":0.05}\n'
    return lines[:k] + [late] + lines[k:], lines


def _late_scan(lines):
    """A radar scan sent twice in a row, and the log as it is."""
    i = [k for k, line in enumerate(lines) if '"radar"' in line][100]
    return lines[:i + 1] + [lines[i]] + lines[i + 1:], lines


@pytest.mark.parametrize("mutate, counter", [
    (_late_imu, "late_imu"),
    (_stale_steering, "stale_events"),
    (_stale_imu, "stale_events"),
    (_late_steering, "late_steering"),
    (_late_scan, "late_scans"),
], ids=["late_imu", "stale_steering", "stale_imu", "late_steering",
        "late_scan"])
def test_dropped_event_is_counted_and_leaves_the_estimate(
        tmp_path, unmodified_3s, mutate, counter):
    lines = _lines_3s()
    mutated, reference = mutate(lines)
    csv, counters = _estimate(tmp_path, "mutated", mutated)
    assert counters[counter] == 1
    assert csv == (unmodified_3s[1] if reference == lines
                   else _estimate(tmp_path, "reference", reference)[0])


def test_log_without_reference_channel_gives_the_same_estimate(
        tmp_path, unmodified_3s):
    # the optical reference is for scoring only: the estimator neither
    # fuses nor counts it, so deleting it changes no output byte
    lines = [line for line in _lines_3s()
             if json.loads(line)["type"] != "ref_vel"]
    csv, counters = _estimate(tmp_path, "no_ref_vel", lines)
    assert csv == unmodified_3s[1]
    assert counters == unmodified_3s[3]


def test_bench_cost_digest_is_that_of_the_estimate(unmodified_3s, capsys):
    # bench and estimate are separate replays: equal digests show that
    # runs agree, and that bench hashes the costs and CSV estimate makes
    log, csv, cost_sha256, _ = unmodified_3s
    bench = cli.cmd_bench(log, None, 1)
    assert bench["cost_sha256"] == cost_sha256
    assert bench["rows_sha256"] == hashlib.sha256(csv).hexdigest()
    out = capsys.readouterr().out
    assert f"cost sha256 {cost_sha256}" in out
    assert f"rows sha256 {bench['rows_sha256']}" in out


def test_bench_exits_3_naming_the_first_differing_solve(tmp_path,
                                                        monkeypatch, capsys):
    log = os.path.join(str(tmp_path), "log.jsonl")
    with open(log, "w") as fh:
        for k in range(101):
            fh.write(serialize_event(ImuSample(k * 0.005, 0.0, 0.0, 0.0))
                     + "\n")
    replay = mhe.replay_events
    runs = []

    def replay_perturbing_the_second_run(events, cfg):
        est = replay(events, cfg)
        runs.append(est)
        if len(runs) == 2:
            est.reports[1].final_cost += 1.0
        return est

    monkeypatch.setattr(mhe, "replay_events",
                        replay_perturbing_the_second_run)
    assert cli.main(["bench", log, "--repetitions", "2"]) == 3
    assert len(runs[0].reports) > 1
    assert "solve 1 of repetition 1" in capsys.readouterr().err


ESTIMATE_HEADER = ",".join(cli.ESTIMATE_CSV_COLUMNS).encode() + b"\n"


@pytest.mark.parametrize("est_csv, named", [
    (b"t,vx\n0.0,abc\n", "'vx'"),
    (b"x,y\n0.0,1\n", "'t'"),
    (b"t,vx\n\xff\xfe\n", "cannot read CSV"),
    (ESTIMATE_HEADER, "no data rows"),
    (ESTIMATE_HEADER + b"10" + b",0" * (len(cli.ESTIMATE_CSV_COLUMNS) - 1)
     + b"\n", "no row within 5 ms"),
], ids=["non_numeric_cell", "missing_t", "invalid_utf8", "header_only",
        "no_overlap"])
def test_unusable_estimate_csv_exits_2_naming_file_and_column(
        tmp_path, capsys, est_csv, named):
    est = os.path.join(str(tmp_path), "est.csv")
    truth = os.path.join(str(tmp_path), "truth.csv")
    with open(est, "wb") as fh:
        fh.write(est_csv)
    with open(truth, "w", encoding="utf-8") as fh:
        fh.write(",".join(cli.TRUTH_CSV_COLUMNS) + "\n")
        fh.write(",".join("0" for _ in cli.TRUTH_CSV_COLUMNS) + "\n")
    assert cli.main(["metrics", est, truth]) == 2
    err = capsys.readouterr().err
    assert est in err and named in err


def test_metrics_reads_only_its_two_csvs(tmp_path):
    # a corrupt estimate summary beside the CSV is not read: metrics
    # scores the CSVs and reports no solve timing
    est = os.path.join(str(tmp_path), "est.csv")
    truth = os.path.join(str(tmp_path), "truth.csv")
    for path, columns in ((est, cli.ESTIMATE_CSV_COLUMNS),
                          (truth, cli.TRUTH_CSV_COLUMNS)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write(",".join("0" for _ in columns) + "\n")
    with open(est + ".summary.json", "wb") as fh:
        fh.write(b"{bad")
    metrics_json = os.path.join(str(tmp_path), "metrics.json")
    assert cli.main(["metrics", est, truth, "--json", metrics_json]) == 0
    with open(metrics_json) as fh:
        assert set(json.load(fh)) == {"channels", "param_convergence_time"}
