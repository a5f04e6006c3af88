"""Manifest parsing and bundle loading."""

from pathlib import Path

import numpy as np
import pytest

from graphfill.datasets import (
    DatasetError,
    PAPER_NODES,
    PAPER_STEPS,
    load_bundle,
    parse_manifest,
    save_bundle,
)
from graphfill.graphs import Graph
from graphfill.signals import SignalSeries

TOY = Path(__file__).parent.parent / "fixtures" / "toy" / "manifest.txt"


def write_bundle(tmp_path, manifest_text, signal="1.0,2.0\n3.0,4.0\n", edges="0 1\n"):
    (tmp_path / "signal.csv").write_text(signal)
    (tmp_path / "edges.txt").write_text(edges)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest_text)
    return manifest


def test_toy_fixture_loads():
    graph, series, units = load_bundle(TOY)
    assert graph.num_nodes == 3
    assert graph.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert series.num_steps == 4
    assert units == "m/s"
    assert series.values[1, 2] == 22.75


def test_minimal_manifest(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\nedges = edges.txt\n")
    graph, series, units = load_bundle(manifest)
    assert graph.num_nodes == 2
    assert units == ""


def test_manifest_unknown_key(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\nedges = edges.txt\ncolour = blue\n")
    with pytest.raises(DatasetError, match="unknown key"):
        parse_manifest(manifest)


def test_manifest_duplicate_key(tmp_path):
    manifest = write_bundle(tmp_path, "signal = a.csv\nsignal = b.csv\nedges = edges.txt\n")
    with pytest.raises(DatasetError, match="duplicate"):
        parse_manifest(manifest)


def test_manifest_requires_signal(tmp_path):
    manifest = write_bundle(tmp_path, "edges = edges.txt\n")
    with pytest.raises(DatasetError, match="signal"):
        parse_manifest(manifest)


def test_manifest_requires_one_graph_source(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\n")
    with pytest.raises(DatasetError, match="edges"):
        parse_manifest(manifest)
    manifest.write_text("signal = signal.csv\nedges = edges.txt\ncoordinates = c.csv\nknn_k = 2\n")
    with pytest.raises(DatasetError, match="exactly one"):
        parse_manifest(manifest)


def test_manifest_coordinates_need_k(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\ncoordinates = coords.csv\n")
    with pytest.raises(DatasetError, match="knn_k"):
        parse_manifest(manifest)


def test_manifest_line_without_equals(tmp_path):
    manifest = write_bundle(tmp_path, "signal signal.csv\n")
    with pytest.raises(DatasetError, match="line 1"):
        parse_manifest(manifest)


def test_expected_dims_enforced(tmp_path):
    manifest = write_bundle(
        tmp_path,
        "signal = signal.csv\nedges = edges.txt\nexpected_nodes = 5\n",
    )
    with pytest.raises(DatasetError, match="expected 5 nodes"):
        load_bundle(manifest)


def test_expected_steps_enforced(tmp_path):
    manifest = write_bundle(
        tmp_path,
        "signal = signal.csv\nedges = edges.txt\nexpected_steps = 9\n",
    )
    with pytest.raises(DatasetError, match="expected 9 steps"):
        load_bundle(manifest)


def test_paper_flag_pins_dimensions(tmp_path):
    rng = np.random.default_rng(0)
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in rng.random((PAPER_NODES, PAPER_STEPS)))
    edges = "\n".join(f"{i} {i + 1}" for i in range(PAPER_NODES - 1))
    manifest = write_bundle(
        tmp_path,
        "signal = signal.csv\nedges = edges.txt\npaper_dataset = true\nunits = m/s\n",
        signal=rows + "\n",
        edges=edges + "\n",
    )
    graph, series, units = load_bundle(manifest)
    assert graph.num_nodes == PAPER_NODES
    assert series.num_steps == PAPER_STEPS


def test_paper_flag_rejects_short_signal(tmp_path):
    rng = np.random.default_rng(0)
    rows = "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rng.random((PAPER_NODES - 1, PAPER_STEPS))
    )
    manifest = write_bundle(
        tmp_path,
        "signal = signal.csv\nedges = edges.txt\npaper_dataset = true\n",
        signal=rows + "\n",
    )
    with pytest.raises(DatasetError, match=f"expected {PAPER_NODES} nodes"):
        load_bundle(manifest)


def test_nan_cell_is_load_error(tmp_path):
    manifest = write_bundle(
        tmp_path, "signal = signal.csv\nedges = edges.txt\n", signal="1.0,nan\n2.0,3.0\n"
    )
    with pytest.raises(DatasetError):
        load_bundle(manifest)


def test_edge_referencing_unknown_node_fails(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\nedges = edges.txt\n", edges="0 7\n")
    with pytest.raises(DatasetError):
        load_bundle(manifest)


def test_coordinate_bundle(tmp_path):
    (tmp_path / "signal.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    (tmp_path / "coords.csv").write_text("node_id,x,y\n0,0.0,0.0\n1,1.0,0.0\n2,2.0,0.0\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "signal = signal.csv\ncoordinates = coords.csv\nknn_k = 1\nknn_weights = unit\n"
    )
    graph, series, _ = load_bundle(manifest)
    assert graph.num_nodes == 3
    assert graph.has_edge(0, 1) and graph.has_edge(1, 2)


def test_coordinate_count_mismatch(tmp_path):
    (tmp_path / "signal.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "coords.csv").write_text("node_id,x\n0,0.0\n1,1.0\n2,2.0\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("signal = signal.csv\ncoordinates = coords.csv\nknn_k = 1\n")
    with pytest.raises(DatasetError, match="coordinate rows"):
        load_bundle(manifest)


def test_save_load_round_trip(tmp_path):
    g = Graph(3, [(0, 1, 0.125), (1, 2, 2.5)])
    values = np.array([[0.1, 1.0 / 3.0, -2.0], [4.0, 5.5, 6.25], [7.0, 8.0, 9.0]])
    series = SignalSeries(values, units="m/s")
    manifest = save_bundle(tmp_path / "bundle", g, series, units="m/s")
    graph, back, units = load_bundle(manifest)
    assert graph == g
    assert np.array_equal(back.values, values)
    assert units == "m/s"


def test_save_bundle_rejects_mismatched_dims(tmp_path):
    with pytest.raises(DatasetError):
        save_bundle(tmp_path, Graph(2, [(0, 1)]), SignalSeries(np.ones((3, 2))))


def test_manifest_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        parse_manifest(tmp_path / "nope.txt")


def test_signal_file_missing(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("signal = ghost.csv\nedges = edges.txt\n")
    (tmp_path / "edges.txt").write_text("0 1\n")
    with pytest.raises(DatasetError, match="signal file not found"):
        load_bundle(manifest)


@pytest.mark.parametrize("name", ["signal.csv", "edges.txt", "coords.csv"])
def test_file_that_is_not_utf8_is_a_load_error_naming_it(tmp_path, name):
    graph_source = "coordinates = coords.csv\nknn_k = 1\n" if name == "coords.csv" else "edges = edges.txt\n"
    manifest = write_bundle(tmp_path, "signal = signal.csv\n" + graph_source)
    (tmp_path / "coords.csv").write_text("node_id,x\n0,0.0\n1,1.0\n")
    (tmp_path / name).write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(DatasetError) as caught:
        load_bundle(manifest)
    assert str(caught.value).startswith(f"{tmp_path / name}: 'utf-8' codec can't decode byte 0xff")
