"""Benchmark for the Bouncer reproduction (see run.py)."""
