"""Workload generation from (workload, seed) through simgen's public API.

Each workload is a JSONL sensor log, the truth CSV it is scored against
and a small meta file.  Generation is deterministic in the seed and runs
outside the timed region, in its own process, so that its memory does not
show in the measuring process.  Results are cached under .bench_cache/.

    python3 -m perfbench.workloads <workload> <out_dir>:<sim_seed>...
"""

from __future__ import annotations

import json
import math
import os
import sys

# fitlap is replayed up to this log time, the end of a corner: the
# standstill preamble, the launch and two corners of opposite sign, 671
# solves.  Cuts inside a corner make BCD convergence flip between corners
# from seed to seed.
FITLAP_PREFIX_S = 13.5
# stopgo: stop/go cycles per log after an initial stop; a run replays two
# logs, so four cycles and six standstill entries
STOPGO_CYCLES = 2
STOPGO_SPEED = 20.0

WORKLOADS = ("fitlap", "dlc65_outliers", "stopgo")
# independent logs (noise draws) per run: one log of each workload holds
# 670-900 solves, so a run replays two to time at least 1000 solves.  Two
# logs also halve the seed-to-seed variance of the accuracy metrics, which
# the heavy-tailed (Cauchy) Doppler noise makes wide for a single log.
LOGS_PER_RUN = {"fitlap": 2, "dlc65_outliers": 2, "stopgo": 2}
# bump when a workload definition changes, so stale caches are not reused
GENERATOR_VERSION = 4


def sim_seeds(workload: str, seed: int) -> list[int]:
    """simgen seeds of the logs one benchmark seed stands for."""
    n = LOGS_PER_RUN[workload]
    return [seed * n + k for k in range(n)]


def _stopgo_script(simgen, cfg):
    """Repeated stop (held past T_stop), launch, light steer, brake."""
    S = simgen.Segment
    hold = cfg.thresholds.T_stop + 1.0

    def steer(t, T=1.5):
        return 0.03 * math.sin(math.pi * t / T)

    segs = [S(hold, 0.0, 0.0)]
    for _ in range(STOPGO_CYCLES):
        segs += [S(2.5, STOPGO_SPEED, 0.0), S(1.5, None, steer),
                 S(2.0, 0.0, 0.0), S(hold, 0.0, 0.0)]
    return simgen.ManeuverScript("stopgo", 0.0, segs)


def _through(script, simgen, t_end: float):
    """The script's leading whole segments that cover [0, t_end]."""
    segs, total = [], 0.0
    for seg in script.segments:
        segs.append(seg)
        total += seg.duration
        if total >= t_end:
            break
    return simgen.ManeuverScript(script.name, script.v0, segs)


def generate(workload: str, seed: int):
    """(events, truth, cfg) of one log of a workload, from its simgen
    seed."""
    from radgrip import simgen
    from radgrip.core import event_time, load_config
    cfg = load_config(None)
    if workload == "fitlap":
        spec = simgen.make_scenario("fitlap", cfg, seed=seed)
        script = _through(spec.script, simgen, FITLAP_PREFIX_S)
        events, truth = simgen.run_scenario(script, spec.p_truth,
                                            spec.noise, cfg)
        events = [ev for ev in events
                  if event_time(ev) <= FITLAP_PREFIX_S]
    elif workload == "dlc65_outliers":
        spec = simgen.make_scenario("dlc65_outliers", cfg, seed=seed)
        events, truth = simgen.run_scenario(spec.script, spec.p_truth,
                                            spec.noise, cfg)
    elif workload == "stopgo":
        events, truth = simgen.run_scenario(
            _stopgo_script(simgen, cfg), simgen.P_TRUTH_DEFAULT,
            simgen.NoiseConfig(seed=seed), cfg)
    else:
        raise KeyError(workload)
    return events, truth, cfg


def write_workload(workload: str, seed: int, out_dir: str) -> dict:
    """Generate and write log.jsonl, truth.csv and meta.json."""
    from radgrip import cli
    from radgrip.core import event_time, serialize_event
    events, truth, cfg = generate(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "log.jsonl"), "w",
              encoding="utf-8") as fh:
        for ev in events:
            fh.write(serialize_event(ev) + "\n")
    cli.write_truth_csv(os.path.join(out_dir, "truth.csv"), truth,
                        cfg.thresholds.dt)
    times = [event_time(ev) for ev in events]
    meta = {
        "workload": workload,
        "sim_seed": seed,
        "generator_version": GENERATOR_VERSION,
        "events": len(events),
        "t_first": min(times),
        "t_last": max(times),
        "dt": cfg.thresholds.dt,
    }
    with open(os.path.join(out_dir, "meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def main(argv) -> int:
    try:
        workload, *targets = argv
        jobs = [(d, int(seed)) for d, seed in
                (t.rsplit(":", 1) for t in targets)]
    except ValueError:
        jobs = None
    if not jobs or workload not in WORKLOADS:
        print("usage: python3 -m perfbench.workloads "
              f"{{{','.join(WORKLOADS)}}} OUT_DIR:SIM_SEED...",
              file=sys.stderr)
        return 1
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    for out_dir, seed in jobs:
        write_workload(workload, seed, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
