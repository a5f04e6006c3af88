"""Undirected weighted graphs: closed neighborhoods, Laplacians, spectra, k-NN construction."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._format import format_value

__all__ = [
    "Graph",
    "SpectralBasis",
    "closed_neighbors",
    "laplacian",
    "eigendecompose",
    "knn_graph",
    "is_connected",
    "read_edge_list",
    "write_edge_list",
    "read_coordinates",
    "write_coordinates",
]


class Graph:
    """Undirected graph on nodes ``0..num_nodes-1`` with nonnegative edge weights.

    Self-loop edges are never stored; every node is implicitly its own closed
    neighbor (see :func:`closed_neighbors`). Instances are immutable once built
    and safe to share across threads. A graph keeps its Laplacian spectrum and
    its fingerprint once computed (``filters.graph_spectrum``, ``harness.graph_sha256``):
    the edges never change, so neither goes stale, and two threads filling one
    at once only compute the same value twice.
    """

    __slots__ = ("_num_nodes", "_weights", "_adjacency", "_spectrum", "_sha256")

    def __init__(self, num_nodes: int, edges: Iterable[Sequence] = ()) -> None:
        num_nodes = int(num_nodes)
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        weights: dict[tuple[int, int], float] = {}
        for spec in edges:
            if len(spec) == 2:
                u, v = spec
                w = 1.0
            elif len(spec) == 3:
                u, v, w = spec
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, w), got {spec!r}")
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) references a node outside [0, {num_nodes})")
            if u == v:
                raise ValueError(f"explicit self-loop on node {u} is not allowed")
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"edge ({u}, {v}) has invalid weight {w!r}")
            key = (u, v) if u < v else (v, u)
            if key in weights:
                raise ValueError(f"duplicate edge {key}")
            weights[key] = w
        self._num_nodes = num_nodes
        self._weights = weights
        adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
        for u, v in weights:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self._spectrum: SpectralBasis | None = None
        self._sha256: str | None = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """All edges as (u, v, weight) with u < v, sorted."""
        return tuple((u, v, self._weights[(u, v)]) for u, v in sorted(self._weights))

    def check_node(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self._num_nodes:
            raise ValueError(f"node {v} is outside [0, {self._num_nodes})")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood of ``v``: adjacent nodes, ascending, without ``v``."""
        return self._adjacency[self.check_node(v)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def weight(self, u: int, v: int) -> float:
        u, v = self.check_node(u), self.check_node(v)
        key = (u, v) if u < v else (v, u)
        try:
            return self._weights[key]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self.check_node(u), self.check_node(v)
        key = (u, v) if u < v else (v, u)
        return key in self._weights

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self._num_nodes, self._num_nodes))
        for (u, v), w in self._weights.items():
            a[u, v] = w
            a[v, u] = w
        return a

    def canonical_text(self) -> str:
        """Stable text form, used for fingerprints and edge-list files."""
        lines = [f"{self._num_nodes}"]
        lines.extend(f"{u} {v} {format_value(w)}" for u, v, w in self.edges)
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._num_nodes == other._num_nodes and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._num_nodes, tuple(sorted(self._weights.items()))))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"


@dataclass(frozen=True)
class SpectralBasis:
    """Eigendecomposition of a graph Laplacian.

    ``eigenvalues`` is ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns, with the sign of each column fixed so
    that its largest-magnitude entry is positive (first such entry on ties).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.eigenvalues.shape[0]

    def leading(self, count: int) -> np.ndarray:
        """The first ``count`` eigenvector columns (lowest frequencies)."""
        count = int(count)
        if not 1 <= count <= self.num_nodes:
            raise ValueError(f"bandwidth {count} outside [1, {self.num_nodes}]")
        return self.eigenvectors[:, :count]


def closed_neighbors(g: Graph, v: int) -> list[int]:
    """``v`` together with its one-hop neighbors, ascending.

    Always contains ``v`` itself, so the result has length 1 + degree(v).
    """
    v = g.check_node(v)
    return sorted((v, *g.neighbors(v)))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian ``degree - adjacency`` as a dense symmetric matrix."""
    n = g.num_nodes
    lap = np.zeros((n, n))
    for u, v, w in g.edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def eigendecompose(laplacian_matrix: np.ndarray) -> SpectralBasis:
    """Full symmetric eigendecomposition with a deterministic sign convention.

    Raises ValueError if the input is not symmetric within 1e-10 (max |A - A^T|)
    and ArithmeticError if the solver fails to converge.
    """
    mat = np.asarray(laplacian_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric (max |A - A^T| = {asym:.3e})")
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"symmetric eigensolver failed to converge: {exc}") from exc
    n = mat.shape[0]
    # argmax returns the first maximal index, which is exactly the tie rule.
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, np.arange(n)])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    # Read-only, since a graph shares its spectrum with every caller.
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralBasis(eigenvalues=values, eigenvectors=vectors)


# Largest difference tensor (chunk rows x n x d entries) built at once.
_KNN_CHUNK_ELEMENTS = 1 << 18


def knn_graph(coords: Sequence[Sequence[float]], k: int, weight_mode: str = "unit") -> Graph:
    """Symmetrized k-nearest-neighbor graph over points in Euclidean space.

    Each point is linked to its ``k`` nearest neighbors (ties broken toward the
    lower node id) and the directed selections are merged into one undirected
    edge set. ``weight_mode`` is ``"unit"`` (all weights 1) or ``"gaussian"``
    (``exp(-d^2 / sigma^2)`` with sigma the mean selected neighbor distance).
    Coincident points are allowed; zero distances simply rank first.
    """
    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points with a common dimension")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    n = pts.shape[0]
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of points ({n})")
    if weight_mode not in ("unit", "gaussian"):
        raise ValueError(f"unknown weight_mode {weight_mode!r}")

    # Rows are ranked in chunks so the difference tensor stays small. Counting
    # the point's own zero, np.partition gives a row's (k+1)-th smallest
    # distance; the other points at or below it (more than k on a tie) are
    # stably sorted by distance in id order and the first k kept: nearer
    # first, then the lower id. The point is excluded by index, because huge
    # finite coordinates can give inf distances that still tie-break by id.
    chunk = max(1, _KNN_CHUNK_ELEMENTS // (n * pts.shape[1]))
    ids = np.arange(n)
    picked = np.empty((n, k), dtype=np.intp)
    picked_d2 = np.empty((n, k))
    for start in range(0, n, chunk):
        rows = ids[start : start + chunk]
        local = np.arange(len(rows))
        diffs = pts[rows, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        candidate = dist2 <= np.partition(dist2, k, axis=1)[:, k : k + 1]
        candidate[local, rows] = False
        row, col = np.nonzero(candidate)  # row-major: ids ascending within a row
        d2 = dist2[row, col]
        order = np.lexsort((d2, row))  # stable, row by row
        keep = order[(np.searchsorted(row, local)[:, None] + np.arange(k)).ravel()]
        picked[rows] = col[keep].reshape(len(rows), k)
        picked_d2[rows] = d2[keep].reshape(len(rows), k)

    # One edge per unordered pair, sorted; a pair picked from both ends has
    # the same squared distance either way.
    lo = np.minimum(picked, ids[:, None]).ravel()
    hi = np.maximum(picked, ids[:, None]).ravel()
    keys, first = np.unique(lo * n + hi, return_index=True)
    pairs = zip((keys // n).tolist(), (keys % n).tolist(), picked_d2.ravel()[first].tolist())
    if weight_mode == "gaussian":
        # Averaged in row-major n x k order, the order the neighbors were
        # picked in, so sigma is the same to the last bit.
        sigma = float(np.mean(np.sqrt(picked_d2.ravel())))
        if sigma > 0:
            edges = [(u, v, float(np.exp(-d2 / sigma**2))) for u, v, d2 in pairs]
        else:
            edges = [(u, v, 1.0) for u, v, _ in pairs]  # all points coincident
    else:
        edges = [(u, v, 1.0) for u, v, _ in pairs]
    return Graph(n, edges)


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability check from node 0."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.num_nodes


def read_edge_list(path: str | Path, num_nodes: int | None = None) -> Graph:
    """Parse an edge-list file: one ``u v [w]`` per line, ``#`` comments, 0-based ids.

    When ``num_nodes`` is omitted it is inferred as ``max id + 1``, which
    cannot represent trailing isolated nodes; pass it explicitly when known.
    """
    path = Path(path)
    triples: list[tuple[int, int, float]] = []
    max_id = -1
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        triples.append((u, v, w))
        max_id = max(max_id, u, v)
    n = int(num_nodes) if num_nodes is not None else max_id + 1
    if n < 1:
        raise ValueError(f"{path}: no nodes (empty edge list and no explicit node count)")
    try:
        return Graph(n, triples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_edge_list(g: Graph, path: str | Path) -> None:
    path = Path(path)
    lines = ["# edge list: u v weight (0-based node ids)"]
    lines.extend(f"{u} {v} {format_value(w)}" for u, v, w in g.edges)
    path.write_text("\n".join(lines) + "\n")


def read_coordinates(path: str | Path) -> np.ndarray:
    """Read a coordinates CSV ``node_id,x,y[,z...]`` (header required, BOM allowed) into N x d."""
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty coordinates file") from None
        if not header or header[0].strip().lower() != "node_id":
            raise ValueError(f"{path}: first column of the header must be 'node_id'")
        dim = len(header) - 1
        if dim < 1:
            raise ValueError(f"{path}: header lists no coordinate columns")
        rows: dict[int, list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected {dim + 1} columns, got {len(row)}")
            try:
                node = int(row[0])
                point = [float(cell) for cell in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if node in rows:
                raise ValueError(f"{path}:{lineno}: duplicate node id {node}")
            rows[node] = point
    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: no coordinate rows")
    if sorted(rows) != list(range(n)):
        raise ValueError(f"{path}: node ids must be exactly 0..{n - 1}")
    coords = np.array([rows[i] for i in range(n)])
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"{path}: coordinates must be finite")
    return coords


def write_coordinates(coords: np.ndarray, path: str | Path) -> None:
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    path = Path(path)
    axis_names = ["x", "y", "z"] + [f"c{i}" for i in range(3, coords.shape[1])]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", *axis_names[: coords.shape[1]]])
        for i, point in enumerate(coords):
            writer.writerow([i, *(format_value(x) for x in point)])
