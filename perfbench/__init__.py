"""Benchmark of the repro NAS system: see ``perfbench/README.md``."""
