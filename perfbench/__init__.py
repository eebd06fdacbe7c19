"""The repository's benchmark: three workloads, untraced and traced runs.

Run it from the repository root with ``python3 -m perfbench.run``; see
``perfbench/README.md``.
"""
