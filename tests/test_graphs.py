"""Graph structure, Laplacian, eigendecomposition, and k-NN construction."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from graphfill import graphs
from graphfill.graphs import (
    Graph,
    eigendecompose,
    graph_sha256,
    knn_graph,
    laplacian,
    read_coordinates,
    read_edge_list,
    write_coordinates,
    write_edge_list,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------- structure


def test_graph_basic_counts():
    g = triangle()
    assert g.num_nodes == 3
    assert len(g.edges) == 3
    assert len(g.neighbors(1)) == 2
    assert 0 in g.neighbors(2)
    assert g.edges[0] == (0, 1, 1.0)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range_node():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_rejects_negative_weight():
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, -0.5)])


def test_graph_refuses_a_non_integer_node_id_naming_the_edge():
    # Such an id was once truncated: (0.7, 2.9) built the edge (0, 2).
    with pytest.raises(ValueError, match=r"edge \(0\.7, 2\.9\) has a non-integer node id"):
        Graph(3, [(0.7, 2.9)])
    with pytest.raises(ValueError, match="non-integer node id"):
        Graph(3, [(0, 1), (np.float64(1.5), 2, 1.0)])
    with pytest.raises(ValueError, match="non-integer node id"):
        Graph(3, [("1", 2)])


def test_graph_keeps_integral_floats_and_numpy_ids():
    g = Graph(3, [(2.0, np.int64(1)), (np.int32(0), np.float64(2.0), np.float32(0.5))])
    assert g.edges == ((0, 2, 0.5), (1, 2, 1.0))
    assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
    same = Graph(3, [(1, 2), (0, 2, 0.5)])
    assert (g.num_nodes, g.edges) == (same.num_nodes, same.edges)
    # No run builds from other numpy id types, an int or float32 weight, or -0.0, 5e-324 and 1e300 weights.
    g = Graph(4, [(np.intp(2), 1.0, 2), (np.float64(0.0), np.int64(1), -0.0), (np.uint8(3), np.int32(0), 5e-324),
                  (3, 2.0, np.float32(0.25)), (1, 3, 1e300)])
    assert repr(g.edges) == "((0, 1, -0.0), (0, 3, 5e-324), (1, 2, 2.0), (1, 3, 1e+300), (2, 3, 0.25))"
    assert [g.neighbors(v) for v in range(4)] == [(1, 3), (0, 2, 3), (1, 3), (0, 1, 2)]
    assert repr(Graph(2, [(0, 1, 2)]).edges) == "((0, 1, 2.0),)"


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ([(0, 1), (2, 5), (1, 1)], "edge (2, 5) references a node outside [0, 3)"),
    ([(0, 1), (1, 1), (2, 5)], "explicit self-loop on node 1 is not allowed"),
    ([(0, 1, float("nan")), (0, 1)], "edge (0, 1) has invalid weight nan"),
    ([(0, 1), (0, 1, -1.0)], "edge (0, 1) has invalid weight -1.0"),  # the weight is checked first
    ([(-1, 1, float("inf"))], "edge (-1, 1) references a node outside [0, 3)"),
    ([(0, 1), (0, 10**30)], "edge (0, 1000000000000000000000000000000) references a node outside [0, 3)"),
    ([(0, 3), ("a", 1)], "edge (0, 3) references a node outside [0, 3)"),  # before the bad id
    ([(0, 1), ("a", 1)], "invalid literal for int() with base 10: 'a'"),
    ([(0, 1), (0, 1, 2, 3)], "edge must be (u, v) or (u, v, w), got (0, 1, 2, 3)"),
    # No run names numpy and float ids, -5e-324 and inf weights, an id past int64 or an empty edge.
    ([(0, 1), (np.int64(2), np.float64(2.0))], "explicit self-loop on node 2 is not allowed"),
    ([(2, 0, 1.0), (0.0, np.int64(2))], "duplicate edge (0, 2)"),
    ([(np.intp(1), 0, np.float32(-0.5))], "edge (1, 0) has invalid weight -0.5"),
    ([(0, 1, -5e-324)], "edge (0, 1) has invalid weight -5e-324"),
    ([(0, 1), (1, 2, math.inf)], "edge (1, 2) has invalid weight inf"),
    ([(1, 2), (0, -(2**70))], "edge (0, -1180591620717411303424) references a node outside [0, 3)"),
    ([(0, 1), (1, 2, 3.0), (-0.25, 1)], "edge (-0.25, 1) has a non-integer node id"),
    ([(0, 1), (2, 1, math.nan), (1,)], "edge (2, 1) has invalid weight nan"),
    ([()], "edge must be (u, v) or (u, v, w), got ()"),
])
def test_graph_names_the_first_faulty_edge(edges, message):
    with pytest.raises(ValueError) as caught:
        Graph(3, edges)
    assert str(caught.value) == message


def test_graph_edges_and_neighbors_are_sorted():
    g = Graph(4, [(3, 2, 0.5), (1, 0), (2, 0, 2.0)])
    assert g.edges == ((0, 1, 1.0), (0, 2, 2.0), (2, 3, 0.5))
    assert [g.neighbors(v) for v in range(4)] == [(1, 2), (0,), (0, 3), (2,)]


# ---------------------------------------------------------------- laplacian


def test_laplacian_path3_textbook():
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(path3()), expect)


def test_laplacian_single_edge():
    got = laplacian(Graph(2, [(0, 1)]))
    assert np.array_equal(got, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_empty_graph():
    assert np.array_equal(laplacian(Graph(3)), np.zeros((3, 3)))


def test_laplacian_row_sums_and_weights():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    lap = laplacian(g)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert lap[0, 1] == -2.0
    assert lap[1, 2] == -0.5
    assert np.array_equal(lap, lap.T)


def test_laplacian_positive_semidefinite():
    rng = np.random.default_rng(5)
    g = Graph(6, [(0, 1), (1, 2, 0.3), (2, 3), (3, 4, 2.5), (4, 5), (0, 5)])
    lap = laplacian(g)
    for _ in range(100):
        z = rng.standard_normal(6)
        assert z @ lap @ z >= -1e-10


# ---------------------------------------------------------------- spectra


def test_eigendecompose_analytic_2x2():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    values, vectors = eigendecompose(lap)
    assert np.allclose(values, [0.0, 2.0], atol=1e-12)
    root = 1.0 / np.sqrt(2.0)
    assert np.allclose(vectors[:, 0], [root, root], atol=1e-12)
    assert np.allclose(vectors[:, 1], [root, -root], atol=1e-12)


def test_eigendecompose_zero_matrix():
    values, vectors = eigendecompose(np.zeros((3, 3)))
    assert np.allclose(values, 0.0)
    assert np.allclose(vectors, np.eye(3), atol=1e-12)


def test_eigendecompose_residual_random_graph():
    rng = np.random.default_rng(17)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5]
    g = Graph(6, pairs or [(0, 1)])
    lap = laplacian(g)
    values, vectors = eigendecompose(lap)
    scale = max(np.abs(lap).max(), 1.0)
    for i in range(6):
        residual = lap @ vectors[:, i] - values[i] * vectors[:, i]
        assert np.abs(residual).max() < 1e-7 * scale


def test_eigendecompose_properties():
    rng = np.random.default_rng(23)
    for n in (4, 12, 50):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        g = Graph(n, pairs or [(0, 1)])
        lap = laplacian(g)
        values, vectors = eigendecompose(lap)
        assert np.all(np.diff(values) >= -1e-10)
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(n)).max() < 1e-8
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.abs(recon - lap).max() < 1e-6


def test_eigendecompose_connected_graph_null_eigenvalue():
    values, _ = eigendecompose(laplacian(path3()))
    assert abs(values[0]) < 1e-8


def test_eigendecompose_sign_convention():
    rng = np.random.default_rng(31)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.4]
    _, vectors = eigendecompose(laplacian(Graph(7, pairs or [(0, 1)])))
    for i in range(7):
        col = vectors[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- knn


def test_knn_collinear():
    g = knn_graph([[0.0], [1.0], [10.0]], 1)
    assert set(g.edges) == {(0, 1, 1.0), (1, 2, 1.0)}


def test_knn_two_points():
    g = knn_graph([[0.0, 0.0], [3.0, 4.0]], 1)
    assert g.edges == ((0, 1, 1.0),)


def test_knn_square_is_cycle():
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    g = knn_graph(corners, 2)
    assert g.edges == ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0))


def test_knn_rejects_large_k():
    with pytest.raises(ValueError):
        knn_graph([[0.0], [1.0], [2.0]], 3)


def test_knn_allows_coincident_points():
    g = knn_graph([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]], 1)
    assert 1 in g.neighbors(0)


def test_knn_tie_break_prefers_lower_id():
    # node 0 is equidistant from 1 and 2; the tie goes to node 1.
    g = knn_graph([[0.0], [1.0], [-1.0], [10.0]], 1)
    assert 1 in g.neighbors(0)
    # Squared distances past the float max are all inf, and still go to the lower id; never to the point itself.
    g = knn_graph([[1e300], [0.0], [-1e300]], 1)
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0))


def test_knn_ties_beyond_k_take_the_lower_ids():
    # Node 0 has four neighbours at distance 1 and k = 2: the two lowest ids win.
    # Every other node has two nearer points of its own, so none picks node 0.
    ring = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    private = [(x * r, y * r) for x, y in ring for r in (1.1, 1.2)]
    g = knn_graph([(0.0, 0.0), *ring, *private], 2)
    assert g.neighbors(0) == (1, 2)
    # Five coincident points, k = 2: each point takes the two lowest other ids.
    g = knn_graph([[0.5, -1.0]] * 5, 2)
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0))


# The benchmark's bundles: default_rng(0).random((N, 2)), 5 neighbors, Gaussian weights.
@pytest.mark.parametrize("nodes, digest", [
    (197, "3c14ea791ff34166c79eeff31512195a604e3e9e640b2688b687b3b78bc0fb6c"),
    (1000, "0daf640d62e99c6ee1395a1160c6053f98a5e581aa2294d991e698a2680ecf57"),
])
def test_knn_graph_of_the_benchmark_recipe_keeps_its_fingerprint(nodes, digest):
    coords = np.random.default_rng(0).random((nodes, 2))
    assert graph_sha256(knn_graph(coords, 5, weight_mode="gaussian")) == digest


def test_laplacian_sums_each_degree_in_sorted_edge_order():
    # In sorted edge order node 1's degree is 1 + 2**-53 + 2**-53, which rounds
    # to 1.0; with its u-end terms first it would be 2**-52 + 1 = 1 + 2**-52.
    tiny = 2.0**-53
    lap = laplacian(Graph(4, [(1, 3, tiny), (0, 1, 1.0), (1, 2, tiny)]))
    assert lap[1, 1] == 1.0
    assert lap[0, 1] == lap[1, 0] == -1.0
    assert lap[1, 2] == lap[2, 1] == -tiny == -lap[2, 2]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(5):
        n = int(rng.integers(5, 15))
        k = int(rng.integers(1, min(4, n - 1) + 1))
        coords = rng.random((n, 2))
        g = knn_graph(coords, k)
        expect = set()
        for i in range(n):
            dists = sorted(
                (float(np.linalg.norm(coords[i] - coords[j])), j) for j in range(n) if j != i
            )
            for _, j in dists[:k]:
                expect.add((min(i, j), max(i, j)))
        assert {(u, v) for u, v, _ in g.edges} == expect

    # What no run builds, against the former full-tensor build: ties at the k-th distance on an integer
    # grid, coincident points, ±1e200 and ±1e300 (inf squared distances, which still tie-break by id;
    # Gaussian weights are refused), 3-D Gaussian weights, whose bits follow the einsum's order of sums,
    # and row chunks of one and of a few rows, the last one shorter. The 1000-point fingerprint splits rows
    # at the default size.
    from test_properties import knn_graph_oracle

    grid = np.array([(x, y) for x in range(-2, 3) for y in range(-1, 2)], dtype=float)
    huge = np.array([[1e300, 0.0], [-1e300, 1.0], [0.0, 1e300], [0.0, 0.0], [1.0, -1.0], [1e200, -1e200],
                     [-1e200, 0.0]])
    for pts in (np.roll(grid, 7, axis=0), np.array([[0.5, -1.0]] * 4 + [[2.0, 0.5]] * 3), huge, huge[:, 0],
                np.random.default_rng(0).random((12, 3))):
        rows = itertools.product((1, 2, 4, len(pts) - 1), ("unit", "gaussian"), (1, 64, 1 << 18))
        for k, weight_mode, chunk in rows:
            built = []
            for build in (knn_graph_oracle, knn_graph):
                try:
                    with mock.patch.object(graphs, "_KNN_CHUNK_ELEMENTS", chunk), np.errstate(invalid="ignore"):
                        built.append(build(pts, k, weight_mode).canonical_text())
                except ValueError:  # inf distances: NaN Gaussian weights
                    built.append(None)
            assert built[0] == built[1], (pts, k, weight_mode, chunk)


def test_knn_gaussian_weights():
    coords = [[0.0], [1.0], [2.0]]
    g = knn_graph(coords, 1, weight_mode="gaussian")
    # every selected neighbor distance is 1, so sigma = 1 and weights = e^-1
    for _, _, w in g.edges:
        assert w == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_knn_gaussian_weights_when_sigma_squared_underflows():
    # Eleven coincident points and one 3e-162 away: sigma is that distance / 12,
    # and sigma**2 underflows to 0.
    coords = [[0.0]] * 11 + [[3e-162]]
    g = knn_graph(coords, 1, weight_mode="gaussian")
    assert g.edges == (*((0, v, 1.0) for v in range(1, 11)), (0, 11, float(np.exp(-144.0))))


def test_knn_rejects_unknown_weight_mode():
    with pytest.raises(ValueError):
        knn_graph([[0.0], [1.0]], 1, weight_mode="inverse")


# ---------------------------------------------------------------- files


def test_edge_list_round_trip(tmp_path):
    g = Graph(4, [(0, 1, 0.25), (1, 2), (2, 3, 1.75)])
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    back = read_edge_list(path, num_nodes=4)
    assert (back.num_nodes, back.edges) == (g.num_nodes, g.edges)


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# header\n\n0 1\n1 2 0.5  # trailing note\n")
    g = read_edge_list(path, num_nodes=3)
    assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))


def test_edge_list_error_carries_line_number(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n0 one\n")
    with pytest.raises(ValueError, match=r"edges\.txt:2"):
        read_edge_list(path, num_nodes=2)


def test_coordinates_round_trip(tmp_path):
    coords = np.array([[0.5, 1.25], [2.0, -3.5]])
    path = tmp_path / "coords.csv"
    write_coordinates(coords, path)
    assert np.array_equal(read_coordinates(path), coords)


def test_coordinates_allow_a_byte_order_mark(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_bytes(b"\xef\xbb\xbfnode_id,x,y\n0,0.5,1.25\n1,2.0,-3.5\n")
    assert np.array_equal(read_coordinates(path), [[0.5, 1.25], [2.0, -3.5]])


@pytest.mark.parametrize("coords, header", [
    (np.array([0.5, -1.25, 3.0]), "node_id,x"),  # 1-D: one coordinate per node
    (np.array([[0.5, 1.0, -2.0], [3.0, 4.25, 5.0]]), "node_id,x,y,z"),
    (np.arange(15.0).reshape(3, 5) / 7, "node_id,x,y,z,c3,c4"),
    (np.array([[5e-324, -0.0, 1.7976931348623157e308, -1e-7], [1e16, 0.1, -123456789.0, 2.0]]), "node_id,x,y,z,c3"),
])
def test_coordinates_round_trip_in_any_dimension(tmp_path, coords, header):
    path = tmp_path / "coords.csv"
    write_coordinates(coords, path)
    assert path.read_text().splitlines()[0] == header
    back = read_coordinates(path)
    assert back.shape == (len(coords), len(header.split(",")) - 1)
    assert back.tobytes() == coords.tobytes()
    # No run reads rows reversed and ended by a lone "\r", or quoted cells behind a byte order mark.
    _, *rows = path.read_text().splitlines()
    quoted = ['"' + row.replace(",", '","') + '"' for row in rows]
    for text in ("\r".join([header, *rows[::-1]]), "\ufeff" + "\n".join([header, *quoted[::-1]])):
        path.write_bytes(text.encode())
        assert read_coordinates(path).tobytes() == coords.tobytes()


def test_coordinates_keep_the_sign_of_a_negative_zero(tmp_path):
    coords = np.array([[-0.0, 1.0], [2.0, -0.0]])
    path = tmp_path / "coords.csv"
    write_coordinates(coords, path)
    assert path.read_bytes() == b"node_id,x,y\r\n0,-0,1\r\n1,2,-0\r\n"
    assert read_coordinates(path).tobytes() == coords.tobytes()


def test_coordinates_rows_in_any_order_and_integral_float_ids(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_text("Node_ID ,x\n2,5\n0.0,3\n1e0,4\n")
    assert read_coordinates(path).tolist() == [[3.0], [4.0], [5.0]]


HEADER_FAULT = "header must be 'node_id' and one or more coordinate names"


@pytest.mark.parametrize("text, message", [
    pytest.param("0,0.5\n1,1.5\n", HEADER_FAULT, id="no-header"),
    pytest.param("id,x\n0,0.5\n1,1.5\n", HEADER_FAULT, id="wrong-first-cell"),
    pytest.param("node_id\n0\n1\n", HEADER_FAULT, id="no-coordinate-column"),
    pytest.param("node_id,x,y\n0,0.5\n1,1.5\n", "header has 3 columns, the rows have 2", id="header-wider-than-rows"),
    pytest.param("node_id,x\n0,0.5\n1,1.5,2\n", "row 3 has 3 columns, expected 2", id="rows-of-two-widths"),
    pytest.param("node_id,x\n0,0.5\n1,1.5\n1,2.5\n", "node id 1 appears more than once", id="repeated-id"),
    pytest.param("node_id,x\n0,0.5\n2,1.5\n", "node id 1 is missing from 0..1", id="missing-id"),
    pytest.param("node_id,x\n-1,0.5\n0,1.5\n", "node id 1 is missing from 0..1", id="negative-id"),
    pytest.param("node_id,x\n0,0.5\n1.5,1.5\n", "node id 1.5 is not an integer", id="fractional-id"),
    pytest.param("node_id,x\n0,0.5\n1,abc\n", "row 3, column 2: not a number: 'abc'", id="not-a-number"),
    pytest.param("node_id,x\n0,0.5\n1,inf\n", "row 3, column 2: non-finite cell 'inf'", id="non-finite"),
    pytest.param("node_id,x\n", "header but no data rows", id="no-rows"),
    pytest.param("", "empty coordinates file", id="empty"),
    # No run names faults behind a quoted comma, lone "\r" line ends or a byte order mark.
    pytest.param('node_id,x\n"0",0.5\n1,"1,5"\n', "row 3, column 2: not a number: '1,5'", id="quoted-comma"),
    pytest.param("node_id,x\r0,0.5\r1,1.5,2\r", "row 3 has 3 columns, expected 2", id="lone-carriage-return"),
    pytest.param("\ufeffnode_id,x\n0,0.5\n0,1\n", "node id 0 appears more than once", id="byte-order-mark"),
])
def test_coordinate_faults_are_named_with_the_file(tmp_path, text, message):
    path = tmp_path / "coords.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        read_coordinates(path)
    assert str(caught.value) == f"{path}: {message}"
