"""Dataset bundles: a manifest file tying a graph source to a signal CSV.

The manifest is a flat key=value text file living next to (or pointing at)
the data it describes. Relative paths are resolved against the manifest's
own directory, so a bundle can be moved as a unit. ``_KEYS`` is the format:
each key that may appear, and the reader of its value.

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


class DatasetError(ValueError):
    """Manifest or bundle content violates the format."""


class LoadedBundle(NamedTuple):
    graph: Graph
    series: SignalSeries
    units: str


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")
    return value


def _weight_mode(raw: str) -> str:
    if raw not in ("unit", "gaussian"):
        raise ValueError("must be 'unit' or 'gaussian'")
    return raw


def _true_false(raw: str) -> bool:
    word = raw.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("must be true or false")
    return word in ("true", "yes", "1")


# Every key a manifest may hold and the reader of its value, whose ValueError says what it must be.
_KEYS = {
    "signal": str,  # signal CSV, required
    "edges": str,  # edge list file
    "coordinates": str,  # node-coordinate CSV, the alternative to edges
    "knn_k": _positive_int,  # neighbor count for the graph built from coordinates
    "knn_weights": _weight_mode,  # default unit
    "units": str,  # unit label attached to the series, default empty
    "expected_nodes": _positive_int,
    "expected_steps": _positive_int,
    "paper_dataset": _true_false,  # true pins the dimensions to PAPER_NODES x PAPER_STEPS
}


def _read_manifest(path: Path) -> tuple[dict, dict[str, int]]:
    """The ``key = value`` pass: each key's read value and its line number.

    Unknown or duplicate keys and bad values are errors naming the first faulty
    line; silent typo tolerance would make a bundle load with the wrong graph.
    """
    if not path.is_file():
        raise DatasetError(f"manifest not found: {path}")
    seen: dict = {}
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
        if key not in _KEYS:
            raise DatasetError(f"manifest line {line_no}: unknown key {key!r}")
        if key in seen:
            raise DatasetError(f"manifest line {line_no}: duplicate key {key!r}")
        if not value:
            raise DatasetError(f"manifest line {line_no}: key {key!r} has no value")
        try:
            seen[key] = _KEYS[key](value)
        except ValueError as exc:
            raise DatasetError(f"manifest line {line_no}: {key} {exc}") from None
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
    if ("edges" in seen) == ("coordinates" in seen):
        raise DatasetError(f"manifest {path}: exactly one of 'edges' or 'coordinates' is required")
    if "coordinates" in seen and "knn_k" not in seen:
        raise DatasetError(f"manifest {path}: 'coordinates' requires 'knn_k'")
    for key in ("knn_k", "knn_weights"):
        if "edges" in seen and key in seen:
            raise DatasetError(f"manifest line {lines[key]}: {key!r} only applies to coordinate bundles")
    if seen.get("paper_dataset", False):
        for key, pinned in (("expected_nodes", PAPER_NODES), ("expected_steps", PAPER_STEPS)):
            if seen.setdefault(key, pinned) != pinned:
                raise DatasetError(
                    f"manifest {path}: paper_dataset pins {key} to {pinned}, manifest says {seen[key]}"
                )

    def data_file(key: str, what: str) -> Path:
        file = path.parent / seen[key]
        if not file.is_file():
            raise DatasetError(f"{what} not found: {file}")
        return file

    units = seen.get("units", "")
    try:
        series = read_signal_csv(data_file("signal", "signal file"), units=units)
        n = series.num_nodes
        if n != seen.get("expected_nodes", n):
            raise DatasetError(f"bundle {path}: signal has {n} rows, expected {seen['expected_nodes']} nodes")
        if series.num_steps != seen.get("expected_steps", series.num_steps):
            raise DatasetError(
                f"bundle {path}: signal has {series.num_steps} columns, expected {seen['expected_steps']} steps"
            )
        if "edges" in seen:
            graph = read_edge_list(data_file("edges", "edge list"), n)
        else:
            coords = read_coordinates(data_file("coordinates", "coordinate file"))
            if coords.shape[0] != n:
                raise DatasetError(f"bundle {path}: {coords.shape[0]} coordinate rows for {n} signal rows")
            graph = knn_graph(coords, seen["knn_k"], weight_mode=seen.get("knn_weights", "unit"))
    except DatasetError:
        raise
    except ValueError as exc:  # a reader's message names its file
        raise DatasetError(str(exc)) from exc
    return LoadedBundle(graph=graph, series=series, units=units)


def save_bundle(directory: str | Path, graph: Graph, series: SignalSeries) -> Path:
    """Write edges, signal and ``manifest.txt`` into a directory; returns the manifest path.

    Paired with load_bundle this round-trips bit for bit: the one numeric CSV writer writes
    shortest exact decimal text, a -0.0 as ``-0``, and ``series.units`` is the units line. A units
    label the manifest cannot hold (a line break, leading or trailing whitespace,
    a surrogate UTF-8 cannot encode) and a graph and series of different sizes
    are refused before anything is written.
    """
    units = series.units
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
