"""Benchmark of ermu: time to a universality verdict, end to end and per layer."""
