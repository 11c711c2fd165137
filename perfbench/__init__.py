"""Benchmark for fedmvc; run it with ``python3 perfbench/run.py``."""
