"""The repository benchmark: seeded workloads, output checks, traced layers.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
