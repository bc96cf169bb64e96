import gzip
import json
import os

from radgrip import cli, mhe
from radgrip.core import ImuSample, serialize_event

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

    est_csv = os.path.join(out, "est.csv")
    assert cli.main(["estimate", log, "--out", est_csv]) == 0
    with open(est_csv + ".summary.json") as fh:
        summary = json.load(fh)
    with open(est_csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == cli.ESTIMATE_CSV_HEADER
    assert len(lines) - 1 == summary["rows"] > 0
    assert summary["solve_time"]["count"] == summary["counters"]["solves"]

    metrics_json = os.path.join(out, "metrics.json")
    assert cli.main(["metrics", est_csv, truth, "--json", metrics_json]) == 0
    with open(metrics_json) as fh:
        metrics = json.load(fh)
    assert metrics["channels"]["vx"]["samples"] > 0
    assert metrics["channels"]["vx"]["rmse"] < 0.05


def test_usage_errors_exit_1(tmp_path):
    assert cli.main(["sim", "no_such_scenario", "--out", str(tmp_path)]) == 1
    assert cli.main(["bench", "unused.jsonl", "--repetitions", "0"]) == 1


def test_missing_log_exits_2(tmp_path):
    missing = os.path.join(str(tmp_path), "missing.jsonl")
    out = os.path.join(str(tmp_path), "est.csv")
    assert cli.main(["estimate", missing, "--out", out]) == 2


def test_malformed_line_exits_2_naming_its_line(tmp_path, capsys):
    log = os.path.join(str(tmp_path), "log.jsonl")
    out = os.path.join(str(tmp_path), "est.csv")
    # bad JSON, and a time too large for a float
    for bad in ("{not json",
                '{"type":"imu","t":' + "1" * 401 + ',"ax":0,"ay":0,"r":0}'):
        with open(log, "w") as fh:
            fh.write(serialize_event(ImuSample(0.0, 0.0, 0.0, 0.0)) + "\n")
            fh.write(bad + "\n")
        assert cli.main(["estimate", log, "--out", out]) == 2
        assert f"{log}:2:" in capsys.readouterr().err


def test_unknown_radar_scan_is_counted_and_dropped(tmp_path):
    with gzip.open(LOG_3S, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    i = [k for k, line in enumerate(lines) if '"radar"' in line][100]
    rec = json.loads(lines[i])
    rec["radar_id"] = 7
    runs = {"unknown": lines[:i] + [json.dumps(rec) + "\n"] + lines[i + 1:],
            "absent": lines[:i] + lines[i + 1:]}
    csv = {}
    for name, log_lines in runs.items():
        log = os.path.join(str(tmp_path), f"{name}.jsonl")
        with open(log, "w", encoding="utf-8") as fh:
            fh.writelines(log_lines)
        csv[name] = os.path.join(str(tmp_path), f"{name}.csv")
        assert cli.main(["estimate", log, "--out", csv[name]]) == 0
    with open(csv["unknown"] + ".summary.json") as fh:
        assert json.load(fh)["counters"]["unknown_radar_scans"] == 1
    with open(csv["unknown"], "rb") as a, open(csv["absent"], "rb") as b:
        assert a.read() == b.read()


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
