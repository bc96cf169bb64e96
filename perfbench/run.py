#!/usr/bin/env python3
"""Real-time replay benchmark for the radgrip estimator.

    python3 perfbench/run.py --workload {fitlap,dlc65_outliers,stopgo} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's logs are generated from the
seed (outside the timed region, cached under .bench_cache/), then replayed
through the user path: cli.cmd_estimate on a generated JSONL log,
followed by cli.compute_metrics against the simulated truth.  Each pass
starts a fresh estimator; passes repeat until --seconds have elapsed and
every log has been replayed and, for the untraced run, until at least
MIN_SOLVES solves have been timed.

--trace 0 times every mhe.Estimator.process_event call from outside and
prints the end-to-end metrics.  --trace 1 replays each log untraced and
then traced, recording spans around each layer's public functions, and
prints the per-layer metrics.  Every run applies the correctness gate in
perfbench/gate.py; a failing gate prints correct=false and exits 1.

Results go to .bench_out/; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# thread-count variables of the BLAS and OpenMP runtimes; inherited values
# are cleared so the run measures the program's own default
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# a p99 over at least 1000 samples has at least 10 samples beyond it
MIN_SOLVES = 1000
# the per-solve budget: the default solver.max_time and the real-time aim
DEADLINE_S = 0.008
SETUP_REPS = 5
SUBPROCESS_TIMEOUT_S = 120

SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from radgrip import load_config, mhe\n"
    "mhe.Estimator(load_config(None))\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def parse_args(argv):
    from perfbench.workloads import WORKLOADS  # stdlib-only import
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="reference runs only: pin the BLAS thread count "
                        "instead of measuring the program's default")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.blas_threads is not None and args.blas_threads < 1:
        p.error("--blas-threads must be >= 1")
    return args


def reset_blas_env(threads: int | None) -> dict:
    """Clear inherited BLAS/OpenMP thread variables (before numpy loads);
    returns what was inherited."""
    inherited = {k: os.environ.pop(k) for k in BLAS_ENV if k in os.environ}
    if threads is not None:
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
            os.environ[k] = str(threads)
    return inherited


def ensure_logs(workload: str, sim_seeds: list[int], version: int
                ) -> list[str]:
    """Directories holding the generated logs of the workload, generating
    the missing ones in one child process."""
    paths = [os.path.join(CACHE_DIR, f"{workload}-sim{s}-v{version}")
             for s in sim_seeds]
    missing = [(p, s) for p, s in zip(paths, sim_seeds)
               if not os.path.exists(os.path.join(p, "meta.json"))]
    if missing:
        tmp = [f"{p}.tmp{os.getpid()}" for p, _ in missing]
        subprocess.run([sys.executable, "-m", "perfbench.workloads",
                        workload] + [f"{t}:{s}" for t, (_, s)
                                     in zip(tmp, missing)],
                       cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        for t, (p, _) in zip(tmp, missing):
            os.replace(t, p)
    return paths


def measure_setup(reps: int) -> list[float]:
    """Seconds from starting a fresh interpreter to a constructed
    mhe.Estimator: interpreter start, import radgrip, load_config."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, SRC],
                                cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        out.append(t1 - t0)
    return out


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    inherited = reset_blas_env(args.blas_threads)
    if not os.path.isfile(os.path.join(SRC, "radgrip", "__init__.py")):
        print(f"error: no radgrip sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    from perfbench import measure, workloads

    wdirs = ensure_logs(args.workload,
                        workloads.sim_seeds(args.workload, args.seed),
                        workloads.GENERATOR_VERSION)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = measure_setup(SETUP_REPS) if args.trace == 0 else None
    bench = measure.Bench(args.workload, args.seed, wdirs, OUT_DIR)
    if args.trace == 0:
        result = bench.run_untraced(args.seconds, MIN_SOLVES, DEADLINE_S,
                                    setup)
    else:
        result = bench.run_traced(args.seconds)
    result["environment"] = measure.environment(inherited, args.blas_threads)
    result["run"] = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.blas_threads is not None:
        tag += f"-blas{args.blas_threads}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    measure.print_report(result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
