"""Undirected weighted graphs: neighborhoods, Laplacians, spectra, k-NN construction."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._format import format_value, read_number_table, read_text, write_number_table

__all__ = [
    "Graph",
    "graph_sha256",
    "laplacian",
    "eigendecompose",
    "knn_graph",
    "read_edge_list",
    "write_edge_list",
    "read_coordinates",
    "write_coordinates",
]


class Graph:
    """Undirected graph on nodes ``0..num_nodes-1`` with nonnegative edge weights.

    Self-loop edges are never stored, so ``neighbors(v)`` never holds ``v``. A plain
    record, compared by identity, immutable once built and safe to share across threads.
    A graph keeps its Laplacian's read-only ``(eigenvalues, eigenvectors)`` pair
    and its fingerprint once computed (``filters.graph_spectrum``,
    :func:`graph_sha256`): the edges never change, so neither goes stale,
    and two threads filling one at once only compute the same value twice.
    Every graph, ``knn_graph``'s too, passes one array check of its edges,
    which names the first faulty edge.
    """

    __slots__ = ("_num_nodes", "_edges", "_adjacency", "_spectrum", "_sha256")

    def __init__(self, num_nodes: int, edges: Iterable[Sequence] = ()) -> None:
        ends, weights, fault = [], [], None
        try:
            for spec in edges:
                if len(spec) not in (2, 3):
                    raise ValueError(f"edge must be (u, v) or (u, v, w), got {spec!r}")
                u, v = int(spec[0]), int(spec[1])
                if u != spec[0] or v != spec[1]:
                    raise ValueError(f"edge {spec!r} has a non-integer node id")
                weights.append(float(spec[2]) if len(spec) == 3 else 1.0)
                ends.append((u, v))
        except (TypeError, ValueError, OverflowError) as exc:
            fault = exc  # raised after the edges before it, which may fail a check first
        self._build(num_nodes, *np.array(ends).reshape(-1, 2).T, np.array(weights))  # object dtype past int64
        if fault is not None:
            raise fault

    def _build(self, num_nodes: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        """Check and store the edges ``(u[i], v[i], w[i])``; the first faulty one names its first fault."""
        n = int(num_nodes)
        if n < 1:
            raise ValueError("graph needs at least one node")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        repeat = np.ones(len(lo), dtype=bool)  # a key may collide or wrap past an edge out of range
        repeat[np.unique(lo * n + hi, return_index=True)[1]] = False
        faults = np.stack([(lo < 0) | (hi >= n), u == v, ~np.isfinite(w) | (w < 0), repeat])
        if faults.any():
            i = int(faults.any(axis=0).argmax())
            a, b = int(u[i]), int(v[i])
            raise ValueError((f"edge ({a}, {b}) references a node outside [0, {n})",
                              f"explicit self-loop on node {a} is not allowed",
                              f"edge ({a}, {b}) has invalid weight {float(w[i])!r}",
                              f"duplicate edge {min(a, b), max(a, b)}")[int(faults[:, i].argmax())])
        lo, hi = lo.astype(np.intp), hi.astype(np.intp)
        # Both ends of each edge sorted by (node, neighbor): the neighbor lists; the u-ends: the edges sorted.
        ends, others = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.lexsort((others, ends))
        bounds = np.cumsum(np.bincount(ends, minlength=n)).tolist()
        nbrs = others[order].tolist()
        self._num_nodes = n
        self._edges = tuple(column[order[order < len(lo)]] for column in (lo, hi, w))
        self._adjacency = tuple(tuple(nbrs[a:b]) for a, b in zip([0, *bounds], bounds))
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None
        self._sha256: str | None = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """All edges as (u, v, weight) with u < v, sorted."""
        return tuple(zip(*(column.tolist() for column in self._edges)))

    def check_node(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self._num_nodes:
            raise ValueError(f"node {v} is outside [0, {self._num_nodes})")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood of ``v``: adjacent nodes, ascending, without ``v``."""
        return self._adjacency[self.check_node(v)]

    def canonical_text(self) -> str:
        """The node count, then a ``u v weight`` line per sorted edge: fingerprints hash
        this text, and ``write_edge_list`` writes its edge lines, formatted nowhere else."""
        lines = [f"{self._num_nodes}"]
        lines.extend(f"{u} {v} {format_value(w)}" for u, v, w in self.edges)
        return "\n".join(lines)


def graph_sha256(g: Graph) -> str:
    """SHA-256 of the graph's canonical text, computed on first use and kept on ``g``."""
    digest = g._sha256
    if digest is None:
        digest = g._sha256 = hashlib.sha256(g.canonical_text().encode("utf-8")).hexdigest()
    return digest


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian ``degree - adjacency`` as a dense symmetric matrix.

    Each off-diagonal entry is set once, and each degree adds its node's weights
    in sorted edge order, as a loop over ``g.edges`` would: v-ends first, then
    u-ends, since every edge (a, x) sorts before every edge (x, b).
    """
    u, v, w = g._edges
    lap = np.zeros((g.num_nodes, g.num_nodes))
    lap[u, v] = lap[v, u] = 0.0 - w  # 0.0 - 0.0 is +0.0, as the loop's subtraction gives
    np.add.at(lap, (v, v), w)
    np.add.at(lap, (u, u), w)
    return lap


def eigendecompose(laplacian_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition with a deterministic sign convention.

    Returns the read-only pair ``(eigenvalues, eigenvectors)``: eigenvalues
    ascending, and as columns their orthonormal eigenvectors, each signed so
    that its largest-magnitude entry (the first on ties) is positive; the first
    F columns span the F lowest graph frequencies. Raises ValueError if the
    input is not symmetric within 1e-10 (max |A - A^T|) and ArithmeticError if
    the solver fails to converge.
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
    return values, vectors


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
    # A chunk's differences are filled a coordinate at a time from contiguous
    # columns. The einsum stays: it sums even and odd coordinates apart
    # ((d0²+d2²)+d1² at d = 3), so a left-to-right sum changes the last bits.
    chunk = min(n, max(1, _KNN_CHUNK_ELEMENTS // (n * pts.shape[1])))
    columns = np.ascontiguousarray(pts.T)
    buffer = np.empty((chunk, n, pts.shape[1]))
    ids = np.arange(n)
    picked = np.empty((n, k), dtype=np.intp)
    picked_d2 = np.empty((n, k))
    for start in range(0, n, chunk):
        rows = ids[start : start + chunk]
        local = np.arange(len(rows))
        diffs = buffer[: len(rows)]
        for j, column in enumerate(columns):
            np.subtract(column[rows, None], column[None, :], out=diffs[:, :, j])
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
    weights = np.ones(len(keys))
    if weight_mode == "gaussian":
        # Averaged in row-major n x k order, the order the neighbors were
        # picked in, so sigma is the same to the last bit.
        sigma = float(np.mean(np.sqrt(picked_d2.ravel())))
        if sigma > 0:  # else all points coincide
            d2 = picked_d2.ravel()[first]
            with np.errstate(divide="ignore", invalid="ignore"):  # inf distances: NaN weights, refused
                # Below about 1e-161, sigma**2 underflows to 0: scale each distance by sigma first.
                weights = np.exp(-d2 / sigma**2 if sigma**2 else -(np.sqrt(d2) / sigma) ** 2)
    graph = Graph.__new__(Graph)
    graph._build(n, keys // n, keys % n, weights)
    return graph


def read_edge_list(path: str | Path, num_nodes: int) -> Graph:
    """Parse an edge-list file: one ``u v [w]`` per line, ``#`` comments, 0-based ids below ``num_nodes``."""
    path = Path(path)
    text = read_text(path)
    triples: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    try:
        return Graph(num_nodes, triples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write a comment header, then the edge lines of ``g.canonical_text()``, one per edge."""
    lines = g.canonical_text().split("\n")
    lines[0] = "# edge list: u v weight (0-based node ids)"  # in place of the node count
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_coordinates(path: str | Path) -> np.ndarray:
    """Read a coordinates CSV ``node_id,x,y[,z...]`` (header required) into N x d, rows in id order.
    The ids are 0..N-1 (``1.0`` is 1), each once, in any row order; the cells follow the signal CSV's
    rules, as ``_format.read_number_table``, the one numeric CSV reader, reads both."""
    header, table = read_number_table(path, "coordinates")
    if header is None or header[0].strip().lower() != "node_id" or len(header) < 2:
        raise ValueError(f"{path}: header must be 'node_id' and one or more coordinate names")
    if len(header) != table.shape[1]:
        raise ValueError(f"{path}: header has {len(header)} columns, the rows have {table.shape[1]}")
    ids, n = table[:, 0], len(table)
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(n)):  # name a fraction, else a repeat, else a gap
        seen, counts = np.unique(ids, return_counts=True)
        for bad, fault in ((ids[ids % 1 != 0], "is not an integer"), (seen[counts > 1], "appears more than once"),
                           (np.setdiff1d(np.arange(n), ids), f"is missing from 0..{n - 1}")):
            if len(bad):
                raise ValueError(f"{path}: node id {format_value(bad[0])} {fault}")
    return table[order, 1:]


def write_coordinates(coords: np.ndarray, path: str | Path) -> None:
    """Write ``node_id,x,y[,z,c3,...]`` and a row per node (1-D: one coordinate) with the one
    numeric CSV writer, ``_format.write_number_table``, which writes a -0.0 as ``-0``."""
    table = np.column_stack([np.arange(len(coords)), np.asarray(coords, dtype=float)])
    names = ["node_id", "x", "y", "z"] + [f"c{i}" for i in range(3, table.shape[1] - 1)]
    write_number_table(path, names[: table.shape[1]], table)
