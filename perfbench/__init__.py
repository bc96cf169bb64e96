"""Real-time replay benchmark for the radgrip estimator.

Run from the repository root:

    python3 perfbench/run.py --workload fitlap --seed 0 --seconds 20 --trace 0

See perfbench/README.md for the workloads, the metrics and how they relate.
"""
