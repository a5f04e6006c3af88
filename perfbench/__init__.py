"""Benchmark for graphfill: four workloads, end-to-end metrics, and a traced per-layer run.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
