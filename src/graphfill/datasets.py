"""Dataset bundles: a manifest file tying a graph source to a signal CSV.

The manifest is a flat key=value text file living next to (or pointing at)
the data it describes. Relative paths are resolved against the manifest's
own directory, so a bundle can be moved as a unit.

Recognized keys:

    signal        path to the signal CSV (required)
    edges         path to an edge list file
    coordinates   path to a node-coordinate CSV (alternative to edges)
    knn_k         neighbor count for graph construction from coordinates
    knn_weights   'unit' or 'gaussian' (default unit)
    units         unit label attached to the series (default empty)
    expected_nodes / expected_steps   hard dimension checks
    paper_dataset true/false; true pins dimensions to 197 nodes x 95 steps

Exactly one of ``edges`` / ``coordinates`` must be present. The whole
manifest is checked before the signal, and then the graph, is read.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from ._format import read_text
from .graphs import Graph, knn_graph, read_coordinates, read_edge_list, write_edge_list
from .signals import SignalSeries, read_signal_csv, write_signal_csv

__all__ = [
    "DatasetError",
    "LoadedBundle",
    "PAPER_NODES",
    "PAPER_STEPS",
    "load_bundle",
    "save_bundle",
]

# Hourly wind-speed benchmark dimensions used when paper_dataset is set.
PAPER_NODES = 197
PAPER_STEPS = 95

_KNOWN_KEYS = frozenset(
    {
        "signal",
        "edges",
        "coordinates",
        "knn_k",
        "knn_weights",
        "units",
        "expected_nodes",
        "expected_steps",
        "paper_dataset",
    }
)

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class DatasetError(ValueError):
    """Manifest or bundle content violates the format."""


class LoadedBundle(NamedTuple):
    graph: Graph
    series: SignalSeries
    units: str


def _parse_int(raw: str, key: str, line_no: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise DatasetError(f"manifest line {line_no}: {key} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise DatasetError(f"manifest line {line_no}: {key} must be positive, got {value}")
    return value


def _read_manifest(path: Path) -> tuple[dict[str, str], dict[str, int]]:
    """The ``key = value`` pass: each key's value and its line number.

    Unknown or duplicate keys are errors; silent typo tolerance would make a
    bundle load with the wrong graph.
    """
    if not path.is_file():
        raise DatasetError(f"manifest not found: {path}")
    seen: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, raw in enumerate(read_text(path, DatasetError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"manifest line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise DatasetError(f"manifest line {line_no}: unknown key {key!r}")
        if key in seen:
            raise DatasetError(f"manifest line {line_no}: duplicate key {key!r}")
        if not value:
            raise DatasetError(f"manifest line {line_no}: key {key!r} has no value")
        seen[key] = value
        lines[key] = line_no
    return seen, lines


def load_bundle(manifest_path: str | Path) -> LoadedBundle:
    """Load graph and series described by a manifest, enforcing its checks.

    The whole manifest is checked first, before any data file is opened.
    The signal then fixes the node count; the graph is read (or built from
    coordinates) against that count, so a graph referencing out-of-range
    nodes or a coordinate file of the wrong length fails here rather than
    deep inside an experiment. Every failure, a reader's or ``knn_graph``'s
    too, is a :class:`DatasetError`, with the message it was raised with.
    """
    path = Path(manifest_path)
    seen, lines = _read_manifest(path)
    if "signal" not in seen:
        raise DatasetError(f"manifest {path}: missing required key 'signal'")
    has_edges = "edges" in seen
    has_coords = "coordinates" in seen
    if has_edges == has_coords:
        raise DatasetError(f"manifest {path}: exactly one of 'edges' or 'coordinates' is required")
    if has_coords and "knn_k" not in seen:
        raise DatasetError(f"manifest {path}: 'coordinates' requires 'knn_k'")
    if has_edges:
        for key in ("knn_k", "knn_weights"):
            if key in seen:
                raise DatasetError(
                    f"manifest line {lines[key]}: {key!r} only applies to coordinate bundles"
                )

    knn_weights = seen.get("knn_weights", "unit")
    if knn_weights not in ("unit", "gaussian"):
        raise DatasetError(
            f"manifest line {lines['knn_weights']}: knn_weights must be 'unit' or 'gaussian'"
        )

    paper = False
    if "paper_dataset" in seen:
        word = seen["paper_dataset"].lower()
        if word not in _BOOL_WORDS:
            raise DatasetError(
                f"manifest line {lines['paper_dataset']}: paper_dataset must be true or false"
            )
        paper = _BOOL_WORDS[word]

    expected_nodes = (
        _parse_int(seen["expected_nodes"], "expected_nodes", lines["expected_nodes"])
        if "expected_nodes" in seen
        else None
    )
    expected_steps = (
        _parse_int(seen["expected_steps"], "expected_steps", lines["expected_steps"])
        if "expected_steps" in seen
        else None
    )
    if paper:
        if expected_nodes is not None and expected_nodes != PAPER_NODES:
            raise DatasetError(
                f"manifest {path}: paper_dataset pins expected_nodes to {PAPER_NODES}, "
                f"manifest says {expected_nodes}"
            )
        if expected_steps is not None and expected_steps != PAPER_STEPS:
            raise DatasetError(
                f"manifest {path}: paper_dataset pins expected_steps to {PAPER_STEPS}, "
                f"manifest says {expected_steps}"
            )
        expected_nodes = PAPER_NODES
        expected_steps = PAPER_STEPS
    knn_k = _parse_int(seen["knn_k"], "knn_k", lines["knn_k"]) if has_coords else None

    base = path.parent
    signal_path = base / seen["signal"]
    units = seen.get("units", "")
    try:
        if not signal_path.is_file():
            raise DatasetError(f"signal file not found: {signal_path}")
        series = read_signal_csv(signal_path, units=units)
        n = series.num_nodes
        if expected_nodes is not None and n != expected_nodes:
            raise DatasetError(
                f"bundle {path}: signal has {n} rows, expected {expected_nodes} nodes"
            )
        if expected_steps is not None and series.num_steps != expected_steps:
            raise DatasetError(
                f"bundle {path}: signal has {series.num_steps} columns, "
                f"expected {expected_steps} steps"
            )
        if has_edges:
            edges_path = base / seen["edges"]
            if not edges_path.is_file():
                raise DatasetError(f"edge list not found: {edges_path}")
            graph = read_edge_list(edges_path, n)
        else:
            coordinates_path = base / seen["coordinates"]
            if not coordinates_path.is_file():
                raise DatasetError(f"coordinate file not found: {coordinates_path}")
            coords = read_coordinates(coordinates_path)
            if coords.shape[0] != n:
                raise DatasetError(
                    f"bundle {path}: {coords.shape[0]} coordinate rows for {n} signal rows"
                )
            graph = knn_graph(coords, knn_k, weight_mode=knn_weights)
    except DatasetError:
        raise
    except ValueError as exc:  # a reader's message names its file
        raise DatasetError(str(exc)) from exc
    return LoadedBundle(graph=graph, series=series, units=units)


def save_bundle(directory: str | Path, graph: Graph, series: SignalSeries, units: str = "") -> Path:
    """Write edges, signal and ``manifest.txt`` into a directory; returns the manifest path.

    Paired with load_bundle this round-trips exactly: values are written as
    shortest exact decimal text. A units label the manifest cannot hold (a line
    break, leading or trailing whitespace, a surrogate UTF-8 cannot encode) and
    a graph and series of different sizes are refused before anything is written.
    """
    if units != units.strip() or len(units.splitlines()) > 1 or any("\ud800" <= c <= "\udfff" for c in units):
        raise DatasetError(f"units label {units!r} would not read back from the manifest unchanged")
    if graph.num_nodes != series.num_nodes:
        raise DatasetError(f"graph has {graph.num_nodes} nodes, series has {series.num_nodes} rows")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, directory / "edges.txt")
    write_signal_csv(series, directory / "signal.csv")
    manifest = directory / "manifest.txt"
    lines = ["signal = signal.csv", "edges = edges.txt"]
    if units:
        lines.append(f"units = {units}")
    lines.append(f"expected_nodes = {series.num_nodes}")
    lines.append(f"expected_steps = {series.num_steps}")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
