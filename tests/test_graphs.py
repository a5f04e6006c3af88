"""Graph structure, Laplacian, eigendecomposition, and k-NN construction."""

import numpy as np
import pytest

from graphfill.graphs import (
    Graph,
    eigendecompose,
    knn_graph,
    laplacian,
    read_coordinates,
    read_edge_list,
    write_coordinates,
    write_edge_list,
)
from graphfill.harness import graph_sha256


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------- structure


def test_graph_basic_counts():
    g = triangle()
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert len(g.neighbors(1)) == 2
    assert g.has_edge(2, 0)
    assert g.weight(0, 1) == 1.0


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
    assert g == Graph(3, [(1, 2), (0, 2, 0.5)])


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
    basis = eigendecompose(lap)
    assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
    root = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.eigenvectors[:, 0], [root, root], atol=1e-12)
    assert np.allclose(basis.eigenvectors[:, 1], [root, -root], atol=1e-12)


def test_eigendecompose_zero_matrix():
    basis = eigendecompose(np.zeros((3, 3)))
    assert np.allclose(basis.eigenvalues, 0.0)
    assert np.allclose(basis.eigenvectors, np.eye(3), atol=1e-12)


def test_eigendecompose_residual_random_graph():
    rng = np.random.default_rng(17)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5]
    g = Graph(6, pairs or [(0, 1)])
    lap = laplacian(g)
    basis = eigendecompose(lap)
    scale = max(np.abs(lap).max(), 1.0)
    for i in range(6):
        residual = lap @ basis.eigenvectors[:, i] - basis.eigenvalues[i] * basis.eigenvectors[:, i]
        assert np.abs(residual).max() < 1e-7 * scale


def test_eigendecompose_properties():
    rng = np.random.default_rng(23)
    for n in (4, 12, 50):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        g = Graph(n, pairs or [(0, 1)])
        lap = laplacian(g)
        basis = eigendecompose(lap)
        assert np.all(np.diff(basis.eigenvalues) >= -1e-10)
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert np.abs(gram - np.eye(n)).max() < 1e-8
        recon = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
        assert np.abs(recon - lap).max() < 1e-6


def test_eigendecompose_connected_graph_null_eigenvalue():
    basis = eigendecompose(laplacian(path3()))
    assert abs(basis.eigenvalues[0]) < 1e-8


def test_eigendecompose_sign_convention():
    rng = np.random.default_rng(31)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.4]
    basis = eigendecompose(laplacian(Graph(7, pairs or [(0, 1)])))
    for i in range(7):
        col = basis.eigenvectors[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_basis_leading_bounds():
    basis = eigendecompose(laplacian(path3()))
    assert basis.leading(2).shape == (3, 2)
    with pytest.raises(ValueError):
        basis.leading(0)
    with pytest.raises(ValueError):
        basis.leading(4)


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
    assert g.num_edges == 4
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 3)


def test_knn_rejects_large_k():
    with pytest.raises(ValueError):
        knn_graph([[0.0], [1.0], [2.0]], 3)


def test_knn_allows_coincident_points():
    g = knn_graph([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]], 1)
    assert g.has_edge(0, 1)


def test_knn_tie_break_prefers_lower_id():
    # node 0 is equidistant from 1 and 2; the tie goes to node 1.
    g = knn_graph([[0.0], [1.0], [-1.0], [10.0]], 1)
    assert g.has_edge(0, 1)


def test_knn_ties_beyond_k_take_the_lower_ids():
    # Node 0 has four neighbours at distance 1 and k = 2: the two lowest ids win.
    # Every other node has two nearer points of its own, so none picks node 0.
    ring = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    private = [(x * r, y * r) for x, y in ring for r in (1.1, 1.2)]
    g = knn_graph([(0.0, 0.0), *ring, *private], 2)
    assert g.neighbors(0) == (1, 2)


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
        adj = g.adjacency_matrix()
        assert np.array_equal(adj, adj.T)
        expect = set()
        for i in range(n):
            dists = sorted(
                (float(np.linalg.norm(coords[i] - coords[j])), j) for j in range(n) if j != i
            )
            for _, j in dists[:k]:
                expect.add((min(i, j), max(i, j)))
        assert {(u, v) for u, v, _ in g.edges} == expect


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
    assert read_edge_list(path, num_nodes=4) == g


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# header\n\n0 1\n1 2 0.5  # trailing note\n")
    g = read_edge_list(path, num_nodes=3)
    assert g.weight(1, 2) == 0.5
    assert g.weight(0, 1) == 1.0


def test_edge_list_error_carries_line_number(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n0 one\n")
    with pytest.raises(ValueError, match=r"edges\.txt:2"):
        read_edge_list(path)


def test_edge_list_infers_node_count(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 4\n")
    assert read_edge_list(path).num_nodes == 5


def test_coordinates_round_trip(tmp_path):
    coords = np.array([[0.5, 1.25], [2.0, -3.5]])
    path = tmp_path / "coords.csv"
    write_coordinates(coords, path)
    assert np.array_equal(read_coordinates(path), coords)


def test_coordinates_allow_a_byte_order_mark(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_bytes(b"\xef\xbb\xbfnode_id,x,y\n0,0.5,1.25\n1,2.0,-3.5\n")
    assert np.array_equal(read_coordinates(path), [[0.5, 1.25], [2.0, -3.5]])
