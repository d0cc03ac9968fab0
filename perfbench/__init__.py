"""Benchmark for creditcurve; run ``python3 perfbench/run.py --help``."""
