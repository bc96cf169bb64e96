"""A traced replay reaches every layer the benchmark names, so that no
per-layer metric of perfbench/measure.py LAYERS reads 0 because the code
it wraps is no longer called on the estimate path."""

import gzip
import os

from perfbench.measure import LAYERS
from perfbench.spans import Tracer, patched
from radgrip import cli

LOG_3S = os.path.join(os.path.dirname(__file__), "data",
                      "dlc65_outliers_3s.jsonl.gz")


def test_traced_oracle_replay_reaches_every_layer(tmp_path):
    log = tmp_path / "log.jsonl"
    with gzip.open(LOG_3S, "rb") as fh:
        log.write_bytes(fh.read())
    tracer = Tracer()
    with patched(tracer, LAYERS):
        cli.cmd_estimate(str(log), None, str(tmp_path / "est.csv"),
                         quiet=True)
    # the estimator no longer calls zupt.estimate_attitude; its span goes
    # with the benchmark revision of ROADMAP item 1
    missing = {target[2] for target in LAYERS} - set(tracer.name)
    assert missing == {"zupt.estimate_attitude"}
