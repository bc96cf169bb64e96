"""Replay equivalence oracle.

A 3 s prefix of the simgen ``dlc65_outliers`` log (seed 0, floats rounded
to 7 significant digits) holds a standstill preamble, a launch past
V_Fy_min and 20% outlier Doppler points, so every factor class (process,
ZUPT, lateral force, Doppler) and the Cauchy weights take part.  Replayed
through ``cli.cmd_estimate`` at the default config, whose solves end on
their iteration cap or a rejected step and never on wall clock, it must
reproduce the recorded estimate CSV and per-solve final costs; and
``radgrip bench`` must find the same cost trajectory in every repetition.

Re-record the golden file only for a deliberate change of the estimate:

    PYTHONPATH=src python tests/test_oracle.py
"""

import gzip
import json
import os

import numpy as np

from radgrip import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
LOG = os.path.join(DATA, "dlc65_outliers_3s.jsonl.gz")
GOLDEN = os.path.join(DATA, "dlc65_outliers_3s_golden.json")


def _unzipped_log(tmp_dir):
    log = os.path.join(tmp_dir, "log.jsonl")
    with gzip.open(LOG, "rt", encoding="utf-8") as src, \
            open(log, "w", encoding="utf-8") as dst:
        dst.write(src.read())
    return log


def _replay(tmp_dir):
    out_csv = os.path.join(tmp_dir, "estimate.csv")
    est = cli.cmd_estimate(_unzipped_log(tmp_dir), None, out_csv, quiet=True)
    with open(out_csv, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return est, lines


def _table(lines):
    """CSV data rows as floats, NaN for an empty field."""
    return np.array([[float(v) if v else np.nan for v in line.split(",")]
                     for line in lines[1:]])


def test_replay_matches_golden(tmp_path):
    est, lines = _replay(str(tmp_path))
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert est.counters["zv_states"] > 0
    assert est.counters["doppler_rejected"] > 0
    assert lines[0] == golden["csv"][0]
    got, want = _table(lines), _table(golden["csv"])
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert not np.all(np.isnan(want[:, lines[0].split(",").index("Fyf")]))
    # rtol 1e-9; near-zero samples are held to 1e-9 of their channel's
    # largest value, the precision the solve carries for that channel
    floor = 1e-9 * np.nanmax(np.abs(want), axis=0)
    ok = np.abs(got - want) <= np.maximum(1e-9 * np.abs(want), floor)
    assert np.all(ok | np.isnan(want)), np.argwhere(~ok & ~np.isnan(want))
    np.testing.assert_allclose([r.final_cost for r in est.reports],
                               golden["final_cost"], rtol=1e-9, atol=0.0)


def test_bench_costs_identical_across_repetitions(tmp_path):
    log = _unzipped_log(str(tmp_path))
    assert cli.main(["bench", log, "--repetitions", "2"]) == 0


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        est, lines = _replay(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"csv": lines,
                   "final_cost": [r.final_cost for r in est.reports]}, fh,
                  indent=0)
        fh.write("\n")
