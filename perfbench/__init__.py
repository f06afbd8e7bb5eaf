"""End-to-end and per-layer benchmark of the n-fusion routing program.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md``
describes the workloads, the metrics and the layer map.
"""
