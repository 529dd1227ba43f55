"""Benchmark for encdesign; run it with ``python3 perfbench/run.py --help``."""
