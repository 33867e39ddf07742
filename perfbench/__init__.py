"""Benchmark for riemarc: workloads, correctness gates and traced per-layer
timings. Run it with ``python3 perfbench/run.py --workload <name>``."""
