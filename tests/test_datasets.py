"""Manifest parsing and bundle loading."""

import re
from pathlib import Path

import numpy as np
import pytest

from graphfill.datasets import (
    _KEYS,
    DatasetError,
    PAPER_NODES,
    PAPER_STEPS,
    load_bundle,
    save_bundle,
)
from graphfill.graphs import Graph
from graphfill.signals import SignalSeries, signal_sha256

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
        load_bundle(manifest)


def test_manifest_duplicate_key(tmp_path):
    manifest = write_bundle(tmp_path, "signal = a.csv\nsignal = b.csv\nedges = edges.txt\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_bundle(manifest)


def test_manifest_requires_signal(tmp_path):
    manifest = write_bundle(tmp_path, "edges = edges.txt\n")
    with pytest.raises(DatasetError, match="signal"):
        load_bundle(manifest)


def test_manifest_requires_one_graph_source(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\n")
    with pytest.raises(DatasetError, match="edges"):
        load_bundle(manifest)
    manifest.write_text("signal = signal.csv\nedges = edges.txt\ncoordinates = c.csv\nknn_k = 2\n")
    with pytest.raises(DatasetError, match="exactly one"):
        load_bundle(manifest)


def test_manifest_coordinates_need_k(tmp_path):
    manifest = write_bundle(tmp_path, "signal = signal.csv\ncoordinates = coords.csv\n")
    with pytest.raises(DatasetError, match="knn_k"):
        load_bundle(manifest)


def test_manifest_line_without_equals(tmp_path):
    manifest = write_bundle(tmp_path, "signal signal.csv\n")
    with pytest.raises(DatasetError, match="line 1"):
        load_bundle(manifest)


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
    assert [(u, v) for u, v, _ in graph.edges] == [(0, 1), (1, 2)]


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
    manifest = save_bundle(tmp_path / "bundle", g, series)
    graph, back, units = load_bundle(manifest)
    assert (graph.num_nodes, graph.edges) == (g.num_nodes, g.edges)
    assert np.array_equal(back.values, values)
    assert units == "m/s"


def test_save_load_keeps_the_sign_of_a_negative_zero(tmp_path):
    series = SignalSeries(np.array([[-0.0, 1.5], [2.0, 3.0]]))
    manifest = save_bundle(tmp_path / "bundle", Graph(2, [(0, 1)]), series)
    assert (tmp_path / "bundle" / "signal.csv").read_bytes() == b"t0,t1\r\n-0,1.5\r\n2,3\r\n"
    back = load_bundle(manifest).series
    assert back.values.tobytes() == series.values.tobytes()
    assert signal_sha256(back) == signal_sha256(series)


def test_save_bundle_writes_the_units_of_its_series(tmp_path):
    manifest = save_bundle(tmp_path / "bundle", Graph(2, [(0, 1)]), SignalSeries(np.ones((2, 3)), units="°C"))
    assert "units = °C\n" in manifest.read_text(encoding="utf-8")
    _, series, units = load_bundle(manifest)
    assert units == series.units == "°C"


@pytest.mark.parametrize("units", ["m\ns", "m\r", "a\x1cb", " m/s", "m/s ", "\udcff", "m\ud83d\ude00"])
def test_save_bundle_refuses_units_the_manifest_cannot_hold(tmp_path, units):
    series = SignalSeries(np.ones((2, 2)), units=units)
    with pytest.raises(DatasetError, match=re.escape(repr(units))):
        save_bundle(tmp_path / "bundle", Graph(2, [(0, 1)]), series)
    assert not (tmp_path / "bundle").exists()


def test_save_bundle_rejects_mismatched_dims(tmp_path):
    with pytest.raises(DatasetError):
        save_bundle(tmp_path / "bundle", Graph(2, [(0, 1)]), SignalSeries(np.ones((3, 2))))
    assert not (tmp_path / "bundle").exists()


def test_manifest_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        load_bundle(tmp_path / "nope.txt")


@pytest.mark.parametrize("signal", [b"\xff\xfe1,2\n", None])
def test_the_manifest_is_checked_before_any_data_is_read(tmp_path, signal):
    manifest = write_bundle(tmp_path, "signal = signal.csv\nedges = edges.txt\ncolour = blue\n")
    if signal is None:
        (tmp_path / "signal.csv").unlink()
    else:
        (tmp_path / "signal.csv").write_bytes(signal)
    with pytest.raises(DatasetError, match=r"^manifest line 3: unknown key 'colour'$"):
        load_bundle(manifest)


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


COORDINATES = "signal = signal.csv\ncoordinates = coords.csv\n"


# One bad value for each reader in the manifest's key table, each the only fault of its manifest.
@pytest.mark.parametrize("manifest_text, message", [
    (COORDINATES + "knn_k = zero\n", "manifest line 3: knn_k must be an integer, got 'zero'"),
    (COORDINATES + "knn_k = 0\n", "manifest line 3: knn_k must be positive, got 0"),
    ("signal = signal.csv\nedges = edges.txt\nexpected_nodes = 2.0\n",
     "manifest line 3: expected_nodes must be an integer, got '2.0'"),
    ("expected_steps = -2\nsignal = signal.csv\nedges = edges.txt\n",
     "manifest line 1: expected_steps must be positive, got -2"),
    (COORDINATES + "knn_k = 1\nknn_weights = Gaussian\n",
     "manifest line 4: knn_weights must be 'unit' or 'gaussian'"),
    ("signal = signal.csv\nedges = edges.txt\npaper_dataset = maybe\n",
     "manifest line 3: paper_dataset must be true or false"),
    ("signal = signal.csv\nedges = edges.txt\n\nunits =\n", "manifest line 4: key 'units' has no value"),
])
def test_a_bad_value_is_reported_by_its_line(tmp_path, manifest_text, message):
    manifest = write_bundle(tmp_path, manifest_text)
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_bundle(manifest)


@pytest.mark.parametrize("manifest_text, message", [
    ("edges = e.txt\nknn_k = zero\n", "manifest line 2: knn_k must be an integer, got 'zero'"),
    ("signal = signal.csv\nedges = edges.txt\nknn_weights = foo\n",
     "manifest line 3: knn_weights must be 'unit' or 'gaussian'"),
])
def test_a_bad_value_is_reported_before_a_rule_between_keys(tmp_path, manifest_text, message):
    # Without the bad value these manifests fail a rule between keys: no signal, and
    # knn_weights on an edge bundle. A value fault is found first, as its line is read.
    manifest = write_bundle(tmp_path, manifest_text)
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_bundle(manifest)


@pytest.mark.parametrize("pins, message", [
    ("expected_nodes = 5\n", f"paper_dataset pins expected_nodes to {PAPER_NODES}, manifest says 5"),
    (f"expected_nodes = {PAPER_NODES}\nexpected_steps = 9\n",
     f"paper_dataset pins expected_steps to {PAPER_STEPS}, manifest says 9"),
])
def test_paper_flag_refuses_other_expected_dimensions(tmp_path, pins, message):
    manifest = write_bundle(tmp_path, "signal = signal.csv\nedges = edges.txt\npaper_dataset = yes\n" + pins)
    with pytest.raises(DatasetError, match=f"^manifest {re.escape(str(manifest))}: {message}$"):
        load_bundle(manifest)


def test_readme_bundle_table_lists_exactly_the_manifest_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Dataset bundles", 1)[1].split("| key ", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `(\w+)` ", table, flags=re.MULTILINE)
    assert sorted(keys) == sorted(_KEYS) and len(keys) == len(set(keys))
