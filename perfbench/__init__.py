"""One benchmark for ANNODA: the ``serve``, ``browse`` and ``churn``
workloads, each checked against an oracle computed apart from the
program, with a separate traced run for per-layer attribution.

Run one workload from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and bounds.
"""
