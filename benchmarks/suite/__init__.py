"""The engine's one benchmark suite.

Four named workloads, each measured end to end (un-shimmed pass) and layer
by layer (traced pass, boundary shims installed by this package around the
engine's public callables).  Names, units, directions and regression bounds
live in ``/BENCHMARK.json``; definitions are in ``README.md`` next to this
file.  Run with ``python -m benchmarks.suite`` from the repository root.
"""
