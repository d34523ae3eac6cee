"""Benchmark of the supineq criterion -> oracle -> verdict pipeline; see README.md."""
