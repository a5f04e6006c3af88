"""Seeded coordinate bundles built with the ``graphfill synth`` recipe.

Station coordinates come from ``default_rng(seed).random((N, 2))``; the
graph is the Gaussian-weighted 5-nearest-neighbor graph over them; the
signal is ``synth_bandlimited`` with F = round(0.3 N), rho 0.95, innovation
0.1 and seed + 1. The bundle stores the coordinates, not the edges, so
loading it builds the kNN graph again, as a coordinate manifest does.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from graphfill import default_bandwidth, knn_graph, synth_bandlimited, write_coordinates, write_signal_csv
from graphfill.harness import graph_sha256, signal_sha256

KNN_K = 5

# Bundle name -> (nodes, steps).
SHAPES = {"paper": (197, 95), "large": (1000, 100)}


def write_bundle(directory: Path, shape: str, seed: int) -> dict:
    """Write the ``shape`` bundle for ``seed``; return its manifest path and hashes."""
    nodes, steps = SHAPES[shape]
    coords = np.random.default_rng(seed).random((nodes, 2))
    graph = knn_graph(coords, KNN_K, weight_mode="gaussian")
    series = synth_bandlimited(
        graph,
        bandwidth=default_bandwidth(nodes),
        temporal_rho=0.95,
        innovation_std=0.1,
        t_len=steps,
        seed=seed + 1,
        units="m/s",
    )
    directory.mkdir(parents=True, exist_ok=True)
    write_coordinates(coords, directory / "stations.csv")
    write_signal_csv(series, directory / "signal.csv")
    lines = [
        "signal = signal.csv",
        "coordinates = stations.csv",
        f"knn_k = {KNN_K}",
        "knn_weights = gaussian",
        "units = m/s",
        f"expected_nodes = {nodes}",
        f"expected_steps = {steps}",
    ]
    manifest = directory / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return {
        "shape": f"{nodes}x{steps}",
        "manifest": str(manifest),
        "graph_sha256": graph_sha256(graph),
        "signal_sha256": signal_sha256(series),
    }
