"""Benchmark for boolrsk; run it with `python3 bench/run.py` (see WORKLOADS.md)."""
