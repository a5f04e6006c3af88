"""Property tests: the reply parser round trip and its fast path, observations,
the online loop's invariants, the G-Sign step bound, the kNN graph's shape,
and the online loop, the kNN build, the signal CSV reader, the result writers
and the messenger's tasks, prompts and mock replies (one node and whole steps)
against their former code."""

import csv
import dataclasses
import enum
import json
import math
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfill import graphs, harness
from graphfill._format import format_value
from graphfill.backends import MockBackend, mock_predict
from graphfill.graphs import Graph, knn_graph
from graphfill.filters import FILTER_KINDS, BandlimitedProjector, FilterConfig, filter_step
from graphfill.harness import (
    EstimateState,
    FilterPredictor,
    MessengerPredictor,
    Predictor,
    RunResult,
    ZeroPredictor,
    evaluate_mse,
    run_online,
)
from graphfill.messenger import (
    _PLACEHOLDERS,
    NodeTask,
    PromptTemplate,
    StepTable,
    TemplateError,
    _scan_response,
    build_task,
    parse_response,
    render_prompt,
)
from graphfill.signals import (
    MaskSpec,
    Observation,
    SamplingMask,
    SignalSeries,
    observation_from_column,
    read_signal_csv,
    synth_bandlimited,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite)
def test_parse_response_reads_back_format_value(x):
    assert parse_response(format_value(x)).value == x


@st.composite
def masked_columns(draw):
    n = draw(st.integers(1, 12))
    column = draw(st.lists(finite, min_size=n, max_size=n))
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(column), np.array(observed)


@given(masked_columns(), st.integers(0, 1000))
def test_observation_from_column_keeps_present_and_zeroes_absent(case, t):
    column, observed = case
    obs = observation_from_column(column, SamplingMask(observed), t)
    assert obs.time_index == t
    assert np.array_equal(obs.present, observed)
    assert obs.data.tobytes() == np.where(observed, column, 0.0).tobytes()  # bits: -0.0 stays -0.0
    assert np.all(obs.data[~observed] == 0.0)


class RandomPredictor(Predictor):
    """Proposes seeded random values and remembers every proposal."""

    name = "random"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.proposals = []

    def predict_missing(self, t, obs, state):
        values = self.rng.normal(scale=100.0, size=self._mask.num_missing)
        self.proposals.append(values)
        return values


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 3),
    st.floats(0.0, 0.99),
    st.integers(0, 2**16),
)
def test_run_online_clamps_observed_entries_and_never_reads_ahead(n, steps, runs, fraction, seed):
    rng = np.random.default_rng(seed)
    truth = SignalSeries(rng.uniform(-1e6, 1e6, size=(n, steps)))
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    predictor = RandomPredictor(seed)
    result = run_online(predictor, g, truth, MaskSpec(fraction, seed), runs=runs)

    proposals = iter(predictor.proposals)
    for est, mask, log in zip(result.estimates, result.masks, result.access_logs):
        observed = mask.observed
        assert np.array_equal(est[observed], truth.values[observed])
        for t in range(steps):
            assert np.array_equal(est[~observed, t], next(proposals))
        assert log == [(t, t) for t in range(steps)]


# ---------------------------------------------------------------- online loop against its former code
# The loop as it was before run-invariant work left the step: every step
# builds an Observation that copies the mask, the filter step projects with
# the former checked ``@`` products, and the column is assembled through a
# boolean mask and checked with np.all.


class FormerObservation:
    __slots__ = ("time_index", "data", "present")

    def __init__(self, time_index, data, present):
        data = np.asarray(data, dtype=float)
        present = np.array(np.asarray(present, dtype=bool))
        present.setflags(write=False)
        data = np.where(present, data, 0.0)
        if not np.all(np.isfinite(data)):
            raise ValueError(f"observation entry {int(np.argmin(np.isfinite(data)))} is non-finite")
        data.setflags(write=False)
        self.time_index, self.data, self.present = int(time_index), data, present

    @property
    def num_nodes(self):
        return self.data.shape[0]


def former_filter_step(kind, estimate, obs, proj, mu):
    if kind not in FILTER_KINDS:
        raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
    estimate = np.asarray(estimate, dtype=float)
    n = estimate.shape[0]
    if obs.num_nodes != n or proj.num_nodes != n:
        raise ValueError("dimension mismatch")
    err = (obs.data - estimate) * obs.present
    if kind == "gsign":
        err = np.sign(err)
    err = np.asarray(err, dtype=float)  # the former BandlimitedProjector.apply
    if err.shape != (proj.num_nodes,):
        raise ValueError("vector shape does not match")
    return estimate + float(mu) * (proj.basis_block @ (proj.basis_block.T @ err))


def former_run(kind, mu, bandwidth, g, truth, mask, runs):
    """The former ``run_online`` loop for a filter kind, or for the zero predictor (kind None)."""
    estimates, masks, logs = [], [], []
    for r in range(runs):
        run_mask = mask.mask_for_run(r, g.num_nodes) if isinstance(mask, MaskSpec) else mask
        if kind is not None:
            proj = BandlimitedProjector.from_graph(g, bandwidth)
            estimate = np.zeros(g.num_nodes)
        values = np.zeros((g.num_nodes, truth.num_steps))
        missing = ~run_mask.observed
        log = []
        for t in range(truth.num_steps):
            log.append((t, t))
            obs = FormerObservation(t, np.array(truth.values[:, t]), run_mask.observed)
            if kind is None:
                proposals = np.zeros(run_mask.num_missing)
            else:
                estimate = former_filter_step(kind, estimate, obs, proj, mu)
                proposals = estimate[~run_mask.observed]
            column = np.array(obs.data)
            column[missing] = proposals
            if not np.all(np.isfinite(column)):
                raise ValueError("assembled estimate contains non-finite entries")
            values[:, t] = column
        estimates.append(values)
        masks.append(run_mask)
        logs.append(log)
    report = evaluate_mse(estimates, truth, masks)
    return [e.tobytes() for e in estimates], repr(report[:2] + (report.per_run,)), logs


def current_run(kind, mu, bandwidth, g, truth, mask, runs):
    if kind is None:
        predictor = ZeroPredictor()
    else:
        predictor = FilterPredictor(kind, FilterConfig(mu=mu, bandwidth=bandwidth))
    result = run_online(predictor, g, truth, mask, runs=runs)
    report = (result.mse_all, result.mse_missing,
              tuple((m["all_nodes"], m["missing_only"]) for m in result.per_run_mse))
    return [e.tobytes() for e in result.estimates], repr(report), result.access_logs


signal_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5]),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
)


@st.composite
def weighted_graphs(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.sampled_from([1.0, 0.0]) | st.floats(0.0, 10.0)
    return Graph(n, [(u, v, draw(weight)) for u, v in chosen])


@st.composite
def online_runs(draw):
    g = draw(weighted_graphs())
    n = g.num_nodes
    steps = draw(st.integers(1, 6))
    truth = SignalSeries(np.array(draw(st.lists(signal_values, min_size=n * steps, max_size=n * steps)))
                         .reshape(n, steps))
    mask = draw(st.one_of(
        st.sampled_from([True, False]).map(lambda o: SamplingMask(np.full(n, o))),  # none or all hidden
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda o: SamplingMask(np.array(o))),
        st.builds(MaskSpec, st.floats(0.0, 0.99), st.integers(0, 2**16), st.booleans()),
    ))
    kind = draw(st.sampled_from([*FILTER_KINDS, None]))
    mu = draw(st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 2.0))
    bandwidth = draw(st.integers(1, n))
    return kind, mu, bandwidth, g, truth, mask, draw(st.integers(1, 3))


@settings(deadline=None, max_examples=300)
@given(online_runs())
def test_online_loop_matches_former_loop_bit_for_bit(case):
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e300 errors
        want = outcome(former_run, *case)
        got = outcome(current_run, *case)
    assert got == want


def former_poisoned_run(kind, mu, bandwidth, g, truth, mask, step, slot, bad):
    """One run of the former loop whose proposals hold ``bad`` at ``slot`` of ``step``.

    Returns the refusal's text, or None, and the bytes of every column stored before it.
    """
    if kind is not None:
        proj = BandlimitedProjector.from_graph(g, bandwidth)
        estimate = np.zeros(g.num_nodes)
    values = np.zeros((g.num_nodes, truth.num_steps))
    missing = ~mask.observed
    for t in range(truth.num_steps):
        obs = FormerObservation(t, np.array(truth.values[:, t]), mask.observed)
        if kind is None:
            proposals = np.zeros(mask.num_missing)
        else:
            estimate = former_filter_step(kind, estimate, obs, proj, mu)
            proposals = estimate[missing]
        if t == step:
            proposals[slot] = bad
        column = np.array(obs.data)
        column[missing] = proposals
        if not np.all(np.isfinite(column)):
            return "assembled estimate contains non-finite entries", values[:, :t].tobytes()
        values[:, t] = column
    return None, values.tobytes()


class PoisonedPredictor(Predictor):
    """Proposes what ``inner`` proposes, but ``bad`` at ``slot`` of ``step``; keeps the run's state."""

    def __init__(self, inner, step, slot, bad):
        self.inner, self.step, self.slot, self.bad = inner, step, slot, bad
        self.name = inner.name

    def reset(self, g, mask, run_index=0):
        super().reset(g, mask, run_index)
        self.inner.reset(g, mask, run_index)

    def predict_missing(self, t, obs, state):
        self.state = state
        proposals = np.array(self.inner.predict_missing(t, obs, state))
        if t == self.step:
            proposals[self.slot] = self.bad
        return proposals


@st.composite
def poisoned_runs(draw):
    g = draw(weighted_graphs())
    n = g.num_nodes
    steps = draw(st.integers(1, 6))
    truth = SignalSeries(np.array(draw(st.lists(signal_values, min_size=n * steps, max_size=n * steps)))
                         .reshape(n, steps))
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda o: not all(o)))
    mask = SamplingMask(np.array(observed))
    kind = draw(st.sampled_from([*FILTER_KINDS, None]))
    mu = draw(st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 2.0))
    bandwidth = draw(st.integers(1, n))
    step = draw(st.integers(0, steps - 1))
    slot = draw(st.integers(0, mask.num_missing - 1))
    return kind, mu, bandwidth, g, truth, mask, step, slot, draw(st.sampled_from([np.nan, np.inf, -np.inf]))


@settings(deadline=None, max_examples=200)
@given(poisoned_runs())
def test_a_non_finite_proposal_is_refused_after_the_former_loops_columns(case):
    kind, mu, bandwidth, g, truth, mask, step, slot, bad = case
    inner = FilterPredictor(kind, FilterConfig(mu=mu, bandwidth=bandwidth)) if kind else ZeroPredictor()
    predictor = PoisonedPredictor(inner, step, slot, bad)
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e300 errors
        want = former_poisoned_run(*case)
        with pytest.raises(ValueError) as refused:
            run_online(predictor, g, truth, mask)
    assert want[0] is not None
    assert (str(refused.value), predictor.state.matrix().tobytes()) == want


# ---------------------------------------------------------------- filter and graph properties


@st.composite
def gsign_steps(draw):
    g = draw(weighted_graphs())
    n = g.num_nodes
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    data = draw(st.lists(finite, min_size=n, max_size=n))
    estimate = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    mu = draw(st.floats(1e-3, 10.0))
    return g, draw(st.integers(1, n)), Observation(0, data, present), estimate, mu


@settings(deadline=None, max_examples=200)
@given(gsign_steps())
def test_gsign_step_norm_is_at_most_mu_sqrt_observed(case):
    g, bandwidth, obs, estimate, mu = case
    proj = BandlimitedProjector.from_graph(g, bandwidth)
    out = filter_step("gsign", estimate, obs, proj, mu)
    bound = mu * math.sqrt(np.count_nonzero(obs.present))
    # the projection's rounding, and the rounding of x + step at |x| <= 1e3
    assert np.linalg.norm(out - estimate) <= bound * (1 + 1e-9) + 1e-9


# ---------------------------------------------------------------- kNN build


def knn_graph_oracle(coords, k, weight_mode="unit"):
    """The former kNN build: the full N x N x d difference tensor and a sorted scan per row."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    selected = set()
    picked_dists = []
    for i in range(n):
        order = sorted((dist2[i, j], j) for j in range(n) if j != i)
        for d2, j in order[:k]:
            picked_dists.append(float(np.sqrt(d2)))
            selected.add((i, j) if i < j else (j, i))
    if weight_mode == "gaussian":
        sigma = float(np.mean(picked_dists))
        if sigma > 0:
            edges = [(u, v, float(np.exp(-dist2[u, v] / sigma**2))) for u, v in sorted(selected)]
        else:
            edges = [(u, v, 1.0) for u, v in sorted(selected)]
    else:
        edges = [(u, v, 1.0) for u, v in sorted(selected)]
    return Graph(n, edges)


def assert_same_knn(coords, k, weight_mode):
    try:
        with np.errstate(invalid="ignore"):
            expect = knn_graph_oracle(coords, k, weight_mode)
    except ValueError:
        # e.g. inf distances make sigma inf and every Gaussian weight NaN
        try:
            knn_graph(coords, k, weight_mode)
        except ValueError:
            return
        raise AssertionError("the former build refused these points, the new one did not")
    got = knn_graph(coords, k, weight_mode)
    assert got == expect
    assert got.canonical_text() == expect.canonical_text()


coordinate = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e200, -1e200]),
)


@st.composite
def point_sets(draw, coordinate=coordinate):
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=1, max_size=n))
    # Pad with copies of drawn points, so coincident points and ties are common.
    while len(rows) < n:
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    order = draw(st.permutations(range(n)))
    pts = np.array([rows[i] for i in order])
    if dim == 1 and draw(st.booleans()):
        pts = pts[:, 0]  # a flat list of 1-D coordinates
    return pts


@st.composite
def coincident_point_sets(draw):
    point = draw(st.lists(coordinate, min_size=1, max_size=3))
    return np.array([point] * draw(st.integers(2, 12)))


tie_heavy_point_sets = st.one_of(
    point_sets(),
    # integer grids: many exact ties at the k-th distance
    point_sets(st.integers(-3, 3).map(float)),
    coincident_point_sets(),
    # squared distances that overflow to inf, which still tie-break by id
    point_sets(st.sampled_from([0.0, 1.0, -1.0, 1e200, -1e200, 1e300, -1e300])),
)


@settings(deadline=None, max_examples=400)
@given(tie_heavy_point_sets, st.data(), st.sampled_from(["unit", "gaussian"]), st.integers(1, 64))
def test_knn_graph_matches_former_build(pts, data, weight_mode, chunk_elements):
    k = data.draw(st.integers(1, len(pts) - 1) | st.just(len(pts) - 1))
    # A small chunk budget splits even a dozen points into several row chunks.
    with mock.patch.object(graphs, "_KNN_CHUNK_ELEMENTS", chunk_elements):
        assert_same_knn(pts, k, weight_mode)


@settings(deadline=None, max_examples=200)
@given(point_sets(st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1.0, 1e-300])),
       st.data(), st.sampled_from(["unit", "gaussian"]))
def test_knn_graph_is_symmetric_without_self_loops_and_degree_at_least_k(pts, data, weight_mode):
    n = len(pts)
    k = data.draw(st.integers(1, n - 1))
    g = knn_graph(pts, k, weight_mode)
    a = g.adjacency_matrix()
    assert np.array_equal(a, a.T)
    assert not np.diag(a).any()
    for v in range(n):
        assert v not in g.neighbors(v)
        assert all(v in g.neighbors(u) for u in g.neighbors(v))
        assert len(g.neighbors(v)) >= k


def test_knn_graph_matches_former_build_on_a_few_hundred_points():
    coords = np.random.default_rng(0).random((400, 2))
    for k, weight_mode in ((5, "gaussian"), (3, "unit")):
        assert_same_knn(coords, k, weight_mode)


# ---------------------------------------------------------------- graph build and Laplacian


class FormerGraph(Graph):
    """A graph built by the former per-edge loop, plus the refusal of a non-integer id."""

    def __init__(self, num_nodes, edges=()):
        num_nodes = int(num_nodes)
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        weights = {}
        for spec in edges:
            if len(spec) == 2:
                u, v = spec
                w = 1.0
            elif len(spec) == 3:
                u, v, w = spec
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, w), got {spec!r}")
            iu, iv = int(u), int(v)
            if iu != u or iv != v:  # the one new rule
                raise ValueError(f"edge {spec!r} has a non-integer node id")
            u, v, w = iu, iv, float(w)
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
        adjacency = [[] for _ in range(num_nodes)]
        for u, v in weights:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)

    @property
    def edges(self):
        return tuple((u, v, self._weights[(u, v)]) for u, v in sorted(self._weights))


def former_laplacian(g):
    n = g.num_nodes
    lap = np.zeros((n, n))
    for u, v, w in g.edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


NODE_ID_TYPES = (int, np.int64, np.intp, float)  # each gives a well-formed id


@st.composite
def edge_lists(draw):
    """Edge lists in every accepted form, each with a chance of one or two of every fault the check names."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    weight = st.one_of(st.just(1.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0).map(np.float64),
                       st.sampled_from([0.0, -0.0, 5e-324, 1e300, 2, np.float32(0.25)]))
    specs = []
    chosen = st.lists(st.sampled_from(pairs), unique_by=lambda p: (min(p), max(p)), max_size=12)
    for u, v in draw(chosen) if pairs else []:
        u, v = (draw(st.sampled_from(NODE_ID_TYPES))(x) for x in (u, v))
        specs.append((u, v, draw(weight)) if draw(st.booleans()) else (u, v))
    faults = st.one_of(
        st.integers(0, n - 1).map(lambda u: (u, u)),  # a self-loop
        st.tuples(st.sampled_from([-1, n, n + 5, 10**30, -(2**70)]), st.integers(0, n - 1)),
        st.tuples(st.sampled_from([0.5, np.float64(1.5), -0.25]), st.integers(0, n - 1)),
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([-1.0, -5e-324, math.inf, -math.inf, math.nan])),
        st.lists(st.integers(0, n - 1), max_size=4).filter(lambda ids: len(ids) not in (2, 3)).map(tuple),
    )
    for _ in range(draw(st.integers(0, 2))):
        listed = [spec for spec in specs if len(spec) >= 2]
        if listed and draw(st.booleans()):  # a repeat, in either orientation
            u, v, *rest = draw(st.sampled_from(listed))
            fault = (v, u, *rest) if draw(st.booleans()) else (u, v, *rest)
        else:
            fault = draw(faults)
        specs.insert(draw(st.integers(0, len(specs))), fault)
    return n, specs


@settings(deadline=None, max_examples=600)
@given(edge_lists())
def test_graph_matches_the_former_per_edge_build(case):
    n, specs = case
    try:
        want = FormerGraph(n, specs)
    except (TypeError, ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as caught:
            Graph(n, specs)
        assert str(caught.value) == str(exc)
        return
    got = Graph(n, specs)
    assert repr(got.edges) == repr(want.edges)
    assert [got.neighbors(v) for v in range(n)] == [want.neighbors(v) for v in range(n)]
    assert got == want and want == got and hash(got) == hash(want)
    for u in range(n):
        for v in range(n):
            key = (min(u, v), max(u, v))
            assert got.has_edge(u, v) == (key in want._weights)
            if key in want._weights:
                assert repr(got.weight(u, v)) == repr(want._weights[key])
            else:
                with pytest.raises(ValueError, match=f"no edge between {u} and {v}"):
                    got.weight(u, v)


@st.composite
def laplacian_graphs(draw):
    n = draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # Magnitudes far apart, so a sum in another order would round differently.
    weight = st.sampled_from([0.0, -0.0, 1.0, 5e-324]) | st.floats(0.0, 1e3) | st.floats(0.0, 1e290)
    return Graph(n, [(u, v, draw(weight)) for u, v in draw(st.permutations(chosen))])


@settings(deadline=None, max_examples=400)
@given(laplacian_graphs())
def test_laplacian_matches_the_former_loop_bit_for_bit(g):
    assert graphs.laplacian(g).tobytes() == former_laplacian(g).tobytes()


# ---------------------------------------------------------------- signal CSV


def read_signal_csv_oracle(path, units=""):
    """The former cell-by-cell signal reader, reading the file as ``utf-8-sig``."""
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        raw_rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not raw_rows:
        raise ValueError(f"{path}: empty signal file")

    def parse_row(row, lineno):
        out = []
        for col, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {lineno}, column {col + 1}: not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}: row {lineno}, column {col + 1}: non-finite cell {cell!r}")
            out.append(v)
        return out

    first = raw_rows[0]
    has_header = False
    try:
        [float(cell) for cell in first]
    except ValueError:
        has_header = True
    data_rows = raw_rows[1:] if has_header else raw_rows
    if not data_rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(data_rows[0])
    matrix = []
    for idx, row in enumerate(data_rows):
        lineno = idx + (2 if has_header else 1)
        if len(row) != width:
            raise ValueError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        matrix.append(parse_row(row, lineno))
    return SignalSeries(values=np.array(matrix), units=units)


csv_tokens = st.sampled_from(
    list("0123456789+-.eE, \t\r\n\"\x0c\u2028") + ["nan", "inf", "\r\n", "t0", "1.5", "-2e-3"]
)
line_ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\r\n", "\n , \n", "\n\x0c\n"])
number_cells = st.one_of(
    finite.map(repr),
    st.integers(-999, 999).map(str),
    st.sampled_from(["nan", "-inf", "1e999", " 2 ", "\t3", "4\x0c", "5\u2028", "1_0", "", " ", "x", "9\r"]),
)
number_cells = number_cells | number_cells.map(lambda cell: f'"{cell}"')  # csv unquotes these


@st.composite
def signal_csv_texts(draw):
    """Text a signal CSV may hold: free token soup, or rows of number-like cells."""
    if draw(st.booleans()):
        text = "".join(draw(st.lists(csv_tokens, max_size=40)))
    else:
        width = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(number_cells, min_size=width, max_size=width + draw(st.integers(0, 1))),
                             min_size=1, max_size=5))
        if draw(st.booleans()):
            rows.insert(0, [f"t{t}" for t in range(width)])
        text = "".join(",".join(row) + draw(line_ends) for row in rows)
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(deadline=None, max_examples=500)
@given(signal_csv_texts())
@example("1,9\r,2\n3,4,5\n")  # a lone "\r" ends a row: csv reads "1,9" and ",2"
@example('"1",2\n3,4\n')  # unquoted, this first row is data, not a header
@example('t0,t1\n"1,5",2\n3,4\n')  # a quoted cell that holds a comma
@example('"t0","t1"\n1,2\n3,4\n')  # a quoted header
@example((",".join(["1.5"] * 40_000) + "\n") * 2)  # quote-free rows over csv's 131,072-character field limit
def test_read_signal_csv_matches_former_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "signal.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expect = read_signal_csv_oracle(path).values
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_signal_csv(path)
            assert str(info.value) == str(exc)
            return
        got = read_signal_csv(path).values
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


# ---------------------------------------------------------------- result writers


def former_json(result):
    return json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"


def former_per_step_csv(result, path, truth):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "t", "node", "truth", "estimate"])
        for r, est in enumerate(result.estimates):
            mat = np.asarray(est)
            for t in range(mat.shape[1]):
                for node in range(mat.shape[0]):
                    writer.writerow(
                        [r, t, node, repr(float(truth.values[node, t])), repr(float(mat[node, t]))]
                    )


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-7, -1e-7, 1e16, -1e16, 123456789.0, -123456789.0,
               0.1, -2.5, 1.7976931348623157e308]
edge_value = st.one_of(st.sampled_from(EDGE_VALUES), finite)
label = st.text(max_size=6)
leaf = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), edge_value, label)
nested = st.recursive(
    leaf,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(label, inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def run_results(draw):
    runs = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 4))

    def matrix(values):
        return np.array(draw(st.lists(values, min_size=n * steps, max_size=n * steps))).reshape(n, steps)

    truth = SignalSeries(matrix(edge_value))
    # Some estimates hold NaN or inf, which json writes as NaN and Infinity.
    non_finite = st.one_of(edge_value, st.sampled_from([float("nan"), float("inf"), float("-inf")]))

    def estimate(values):
        # Each entry is its own draw, a copy of the truth entry at the same
        # place, or, where the truth is a zero, the zero of the other sign.
        own = matrix(values)
        pick = np.array(draw(st.lists(st.sampled_from(["own", "truth", "flip"]),
                                      min_size=n * steps, max_size=n * steps))).reshape(n, steps)
        est = np.where(pick == "truth", truth.values, own)
        flip = (pick == "flip") & (truth.values == 0.0)
        est[flip] = -truth.values[flip]
        return est

    estimates = [estimate(draw(st.sampled_from([edge_value, non_finite]))) for _ in range(runs)]
    result = RunResult(
        name=draw(label),
        config=draw(st.dictionaries(label, nested, max_size=4)),
        context=draw(st.dictionaries(label, nested, max_size=4)),
        estimates=estimates,
        masks=[SamplingMask(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
               for _ in range(runs)],
        per_run_mse=[{"all_nodes": draw(edge_value), "missing_only": draw(st.none() | edge_value)}
                     for _ in range(runs)],
        mse_all=draw(edge_value),
        mse_missing=draw(edge_value),
        fallback_uses=draw(st.integers(0, 10**6)),
        per_run_stats=[draw(st.dictionaries(label, st.integers(0, 10**6), max_size=3))
                       for _ in range(runs)],
        truth=truth,
    )
    return result, truth


@settings(deadline=None)
@given(run_results())
def test_writers_match_former_writers(case):
    result, truth = case
    expect_json = former_json(result)
    assert result.to_json() == expect_json
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result.save(tmp / "new.json")
        assert (tmp / "new.json").read_bytes() == expect_json.encode()
        result.write_per_step_csv(tmp / "new.csv")
        former_per_step_csv(result, tmp / "old.csv", truth)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def clamped_runs():
    """Two-run glms and mock results on a 60-node kNN graph, 20 seeded steps."""
    g = knn_graph(np.random.default_rng(11).random((60, 2)), 4)
    series = synth_bandlimited(g, bandwidth=8, temporal_rho=0.9, innovation_std=0.1, t_len=20,
                               seed=3, units="m/s")
    predictors = [FilterPredictor("glms"), MessengerPredictor(MockBackend(0.5), units="m/s", name="mock")]
    return [run_online(p, g, series, MaskSpec(fraction=0.3, seed=5), runs=2) for p in predictors]


def written(result, tmp_path, csv_first=False):
    """The JSON and per-step CSV bytes ``result`` writes, JSON first unless ``csv_first``."""
    writers = [lambda: result.save(tmp_path / "out.json"), lambda: result.write_per_step_csv(tmp_path / "out.csv")]
    for write in writers[::-1] if csv_first else writers:
        write()
    return (tmp_path / "out.json").read_bytes(), (tmp_path / "out.csv").read_bytes()


def test_writers_match_former_writers_on_clamped_runs(tmp_path):
    for result in clamped_runs():
        # Observed rows are clamped to the exact observation, so the writers
        # take those entries' text from the truth's.
        for est, mask in zip(result.estimates, result.masks):
            assert np.array_equal(est[mask.observed], result.truth.values[mask.observed])
            assert not np.array_equal(est, result.truth.values)
        assert result.to_json() == former_json(result)
        result.write_per_step_csv(tmp_path / "new.csv")
        former_per_step_csv(result, tmp_path / "old.csv", result.truth)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_truth_text_is_shared_in_either_order_and_when_written_twice(tmp_path):
    for result in clamped_runs():
        expect_json, expect_csv = written(dataclasses.replace(result), tmp_path)
        result.write_per_step_csv(tmp_path / "csv_first.csv")
        result.save(tmp_path / "csv_first.json")
        assert (tmp_path / "csv_first.csv").read_bytes() == expect_csv
        assert (tmp_path / "csv_first.json").read_bytes() == expect_json
        for _ in range(2):
            assert written(result, tmp_path) == (expect_json, expect_csv)
            assert result.to_json().encode() == expect_json


def test_truth_text_follows_a_replaced_truth(tmp_path):
    for result in clamped_runs():
        before = written(result, tmp_path)
        # A truth of the same shape that run 0's estimates equal everywhere,
        # hidden rows included: stale text would show in both files.
        result.truth = SignalSeries(result.estimates[0], units="m/s")
        expect = written(dataclasses.replace(result), tmp_path)
        assert expect != before
        assert written(result, tmp_path) == expect
        assert result.to_json() == former_json(result)
        # So does a replaced estimate array, in either writer order.
        for csv_first in (False, True):
            before = written(result, tmp_path, csv_first)
            result.estimates[1] = result.estimates[1] + 1.0
            expect = written(dataclasses.replace(result), tmp_path)
            assert expect != before
            assert written(result, tmp_path, csv_first) == expect
            assert result.to_json() == former_json(result)


@pytest.mark.parametrize("csv_first", [False, True])
def test_each_cell_is_formatted_once_by_both_writers(tmp_path, monkeypatch, csv_first):
    calls = []
    monkeypatch.setattr(harness, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    for result in clamped_runs():
        truth = result.truth.values
        differing = sum(np.count_nonzero(est.view(np.int64) != truth.view(np.int64)) for est in result.estimates)
        assert 0 < differing < result.runs * truth.size
        calls.clear()
        written(result, tmp_path, csv_first)
        assert len(calls) == truth.size + differing


def test_to_json_matches_former_json_for_empty_estimate_matrices():
    result = RunResult(
        name="empty", config={}, context={"nested": {"list": []}},
        estimates=[np.zeros((2, 0)), np.zeros((0, 3))],
        masks=[SamplingMask([True, False])] * 2,
        per_run_mse=[{}, {}], mse_all=0.0, mse_missing=0.0, fallback_uses=0,
        per_run_stats=[{}, {}],
    )
    assert result.to_json() == former_json(result)


# ---------------------------------------------------------------- messenger tasks

# The former task layout, one frozen NeighborValue per neighbor with a
# Freshness enum, and the build_task / render_prompt / mock_predict that read
# it, kept as the oracle for the plain (node_id, value, observed) triples.


class FormerFreshness(str, enum.Enum):
    CURRENT_OBSERVED = "current-observed"
    STALE_ESTIMATE = "stale-estimate"


FORMER_LABELS = {
    FormerFreshness.CURRENT_OBSERVED: "observed at this time step",
    FormerFreshness.STALE_ESTIMATE: "estimate from the previous time step",
}


class FormerNeighborValue:
    def __init__(self, node_id, value, freshness):
        self.node_id, self.value, self.freshness = int(node_id), float(value), freshness
        if not math.isfinite(self.value):
            raise ValueError(f"neighbor value for node {self.node_id} is non-finite")


class FormerTask:
    def __init__(self, node_id, time_index, prev_estimate, neighbor_values, units=""):
        self.node_id, self.time_index, self.units = node_id, time_index, units
        self.prev_estimate = None if prev_estimate is None else float(prev_estimate)
        self.neighbor_values = tuple(neighbor_values)


def former_build_task(v, obs, prev, g, mode, units):
    prev_vec = None if prev is None else np.asarray(prev, dtype=float)
    entries = []
    for u in g.neighbors(v):
        if obs.present[u]:
            entries.append(FormerNeighborValue(u, obs.data[u], FormerFreshness.CURRENT_OBSERVED))
        elif mode == "observed-plus-stale" and prev_vec is not None:
            entries.append(FormerNeighborValue(u, float(prev_vec[u]), FormerFreshness.STALE_ESTIMATE))
    prev_estimate = None if prev_vec is None else float(prev_vec[v])
    return FormerTask(v, obs.time_index, prev_estimate, entries, units)


def former_render_prompt(task, template):
    units = task.units if task.units else "unspecified units"
    if task.prev_estimate is not None:
        prev_block = (
            f"Previous estimate for station {task.node_id} "
            f"(time step {task.time_index - 1}): {format_value(task.prev_estimate)}"
        )
    else:
        prev_block = f"No previous estimate is available for station {task.node_id}."
    if task.neighbor_values:
        neighbor_block = "\n".join(
            f"- station {entry.node_id}: {format_value(entry.value)} "
            f"({FORMER_LABELS[entry.freshness]})"
            for entry in task.neighbor_values
        )
    else:
        neighbor_block = "(no neighbor values available)"
    mapping = {
        "node_id": str(task.node_id),
        "time_index": str(task.time_index),
        "units": units,
        "prev_estimate_block": prev_block,
        "neighbor_block": neighbor_block,
    }
    return template.body.replace("{instruction_block}", template.instruction).format_map(mapping)


def former_mock_predict(task, alpha):
    has_prev = task.prev_estimate is not None
    has_neighbors = len(task.neighbor_values) > 0
    if not has_prev and not has_neighbors:
        return "NaN"
    if not has_neighbors:
        value = task.prev_estimate
    elif not has_prev:
        value = float(np.mean([entry.value for entry in task.neighbor_values]))
    else:
        neighbor_mean = float(np.mean([entry.value for entry in task.neighbor_values]))
        value = alpha * task.prev_estimate + (1.0 - alpha) * neighbor_mean
    return format_value(value)


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0, -3.0, 42.0, 2.5]
task_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-10**6, 10**6).map(float),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300, allow_nan=False),
)


@st.composite
def messenger_steps(draw):
    """One time step: a graph, an observation, previous estimates (or a cold start)."""
    # A hidden hub with 8 to 13 neighbors: numpy sums 8 or more values
    # pairwise and fewer in order, so a mean computed any other way shows.
    hub = draw(st.booleans())
    n = draw(st.integers(9, 14) if hub else st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if hub:
        edges.update((0, j) for j in range(1, n))
    g = Graph(n, sorted(edges))
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if hub:
        present[0] = False
    data = draw(st.lists(task_values, min_size=n, max_size=n))
    t = draw(st.integers(0, 500))
    obs = Observation(t, [x if p else 0.0 for x, p in zip(data, present)], present)
    prev = draw(st.none() | st.lists(task_values, min_size=n, max_size=n).map(np.array))
    mode = draw(st.sampled_from(["observed-only", "observed-plus-stale"]))
    units = draw(st.sampled_from(["", "m/s"]))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return obs, prev, g, mode, units, alpha


@st.composite
def messenger_cases(draw):
    obs, prev, g, mode, units, alpha = draw(messenger_steps())
    v = draw(st.integers(0, g.num_nodes - 1))
    return v, obs, prev, g, mode, units, alpha


@settings(deadline=None, max_examples=300)
@given(messenger_cases())
def test_messenger_task_prompt_and_mock_reply_match_former_code(case):
    v, obs, prev, g, mode, units, alpha = case
    template = PromptTemplate.default()
    table = StepTable(obs, prev, g, mode)
    task = build_task(v, table, units)
    former = former_build_task(v, obs, prev, g, mode, units)
    # through the step's table and from the task alone, for hidden and observed nodes alike
    assert render_prompt(task, template, table) == former_render_prompt(former, template)
    assert render_prompt(task, template) == former_render_prompt(former, template)
    assert outcome(mock_predict, task, alpha) == outcome(former_mock_predict, former, alpha)
    # What the graph and the table guarantee for every node's task, since a task checks nothing:
    # neighbor ids distinct, ascending and never the node's own (so its current reading is never
    # in its task), every value finite, every field of its plain type.
    for w in range(g.num_nodes):
        node_task = build_task(w, table, units)
        ids = [u for u, _, _ in node_task.neighbor_values]
        assert ids == sorted(set(ids)) and w not in ids
        assert (type(node_task.node_id), type(node_task.time_index), type(node_task.units)) == (int, int, str)
        prev_estimate = node_task.prev_estimate
        assert prev_estimate is None or (type(prev_estimate) is float and math.isfinite(prev_estimate))
        for u, x, observed in node_task.neighbor_values:
            assert (type(u), type(x), type(observed)) == (int, float, bool) and math.isfinite(x)


class RecordingMock(MockBackend):
    """The mock backend, keeping each task it answers with its prompt and reply."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.seen = []

    def complete(self, req):
        reply = super().complete(req)
        self.seen.append((req.task, req.prompt, reply))
        return reply


def plain_task(task):
    """A task's fields as text that tells -0.0 from 0.0."""
    neighbors = [(e.node_id, e.value, e.freshness is FormerFreshness.CURRENT_OBSERVED)
                 if isinstance(e, FormerNeighborValue) else e for e in task.neighbor_values]
    return repr((task.node_id, task.time_index, task.prev_estimate, neighbors, task.units))


def former_step(obs, prev, g, mode, units, alpha, template):
    """Each hidden node in turn through the former build_task, render_prompt and mock_predict."""
    seen, infeasible = [], 0
    for v in np.flatnonzero(~obs.present).tolist():
        task = former_build_task(v, obs, prev, g, mode, units)
        if task.prev_estimate is None and not task.neighbor_values:
            infeasible += 1
            continue
        seen.append((plain_task(task), former_render_prompt(task, template), former_mock_predict(task, alpha)))
    return seen, infeasible


def predictor_step(obs, prev, g, mode, units, alpha, template):
    """One step of the messenger predictor, as the online loop runs it."""
    backend = RecordingMock(alpha)
    predictor = MessengerPredictor(backend, template=template, neighbor_mode=mode, units=units,
                                   keep_prompts=True)
    predictor.reset(g, SamplingMask(obs.present))
    state = EstimateState(g.num_nodes, 1)
    if prev is not None:
        state.append(prev, np.array([], dtype=np.intp), np.array([]))
    proposals = predictor.predict_missing(obs.time_index, obs, state)
    seen = [(plain_task(task), prompt, reply) for task, prompt, reply in backend.seen]
    return seen, predictor.stats["infeasible_tasks"], proposals, predictor.prompt_log


@settings(deadline=None, max_examples=300)
@given(messenger_steps())
def test_messenger_step_matches_former_code_node_by_node(case):
    obs, prev, g, mode, units, alpha = case
    if not (~obs.present).any():
        return  # nothing hidden, nothing to ask
    template = PromptTemplate.default()
    want = outcome(former_step, obs, prev, g, mode, units, alpha, template)
    got = outcome(predictor_step, obs, prev, g, mode, units, alpha, template)
    if isinstance(want[0], type):  # the former code raised; the predictor must raise the same
        assert got == want
        return
    seen, infeasible, proposals, prompt_log = got
    assert (seen, infeasible) == want
    assert [entry["prompt"] for entry in prompt_log] == [prompt for _, prompt, _ in seen]
    # each answered node's proposal is its reply read back, in node order
    answered = iter(float(reply) for _, _, reply in seen)
    hidden = np.flatnonzero(~obs.present).tolist()
    former_tasks = [former_build_task(v, obs, prev, g, mode, units) for v in hidden]
    for proposal, task in zip(proposals.tolist(), former_tasks):
        if task.prev_estimate is not None or task.neighbor_values:
            assert repr(proposal) == repr(next(answered))


@settings(max_examples=500)
@given(st.one_of(
    st.text(),
    st.sampled_from(["1e999", "-1e999", "-0", "+0", " 3 ", ".5", "5.", "nan", "NaN", "-", ".", "e5",
                     "1e", "1.5e+", "3.", "007", "1_000", "inf", "\u0663", "2 2", "2 3"]),
    finite.map(format_value),
    st.from_regex(r"\A[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?\Z"),
))
def test_parse_response_fast_path_matches_full_scan(text):
    fast, full = parse_response(text), _scan_response(text)
    assert (repr(fast.value), fast.failure) == (repr(full.value), full.failure)


CONVERSION = st.sampled_from(["", "!r", "!s", "!a"])
SPEC = st.one_of(
    st.just(""),
    st.builds(lambda fill, align, width, precision, kind: f":{fill}{align}{width}{precision}{kind}",
              st.sampled_from(["", "_", "*", " ", "0"]),
              st.sampled_from(["<", ">", "^"]),
              st.sampled_from(["", "0", "3", "12"]),
              st.sampled_from(["", ".0", ".2", ".5"]),
              st.sampled_from(["", "s"])),
    st.sampled_from([":", ":5", ":.1", ":s", ":010"]),
)
literal_text = st.text(alphabet="ab \n:!.[]%{}0", max_size=8).map(
    lambda text: text.replace("{", "{{").replace("}", "}}"))


@st.composite
def well_formed_bodies(draw):
    """Template bodies with escapes, repeated fields, conversions and format specs."""
    pieces = draw(st.lists(st.one_of(
        literal_text,
        st.builds(lambda name, conversion, spec: f"{{{name}{conversion}{spec}}}",
                  st.sampled_from(_PLACEHOLDERS), CONVERSION, SPEC),
    ), max_size=10))
    for required in ("{neighbor_block}", "{instruction_block}"):
        pieces.insert(draw(st.integers(0, len(pieces))), required)
    return "".join(pieces)


def former_template_check(text):
    """The former build-time check: format_map with "0" for each placeholder, then no nested spec."""
    text.format_map(dict.fromkeys(_PLACEHOLDERS, "0"))
    if any(spec and "{" in spec for _, _, spec, _ in string.Formatter().parse(text)):
        raise ValueError("a replacement field nested in a format spec")


def former_refuses(text):
    try:
        former_template_check(text)
    except (KeyError, IndexError, ValueError, AttributeError, TypeError):
        return True
    return False


TEMPLATE_TOKENS = ["{", "}", "{{", "}}", "node_id", "units", "time_index", "neighbor_block", "bogus", "0",
                   "!", "r", "a", "x", ":", ">4", ".", "[", "]", "[0]", "upper", " ", "\n",
                   "{node_id}", "{units!r:>5}", "{time_index:{units}}", "{0}", "{}"]


@settings(max_examples=500)
@given(st.one_of(
    well_formed_bodies(),
    st.lists(st.sampled_from(TEMPLATE_TOKENS), max_size=12).map(
        lambda tokens: "".join(tokens) + "{neighbor_block}{instruction_block}"),
), st.lists(st.text(max_size=6), min_size=len(_PLACEHOLDERS), max_size=len(_PLACEHOLDERS)))
def test_compiled_template_renders_what_format_map_renders(body, values):
    text = body.replace("{instruction_block}", PromptTemplate.instruction)
    try:
        template = PromptTemplate(body=body)
    except TemplateError as exc:
        # refused by the former check too, or a field with attribute or index access
        assert former_refuses(text) or "attribute or index access" in str(exc)
        return
    assert not former_refuses(text)
    assert template._render(values) == text.format_map(dict(zip(_PLACEHOLDERS, values)))


@settings(max_examples=100)
@given(well_formed_bodies(), st.lists(st.text(max_size=6), min_size=len(_PLACEHOLDERS),
                                      max_size=len(_PLACEHOLDERS)))
def test_well_formed_templates_are_kept_and_render_as_format_map(body, values):
    template = PromptTemplate(body=body)
    text = body.replace("{instruction_block}", PromptTemplate.instruction)
    assert template._render(values) == text.format_map(dict(zip(_PLACEHOLDERS, values)))


def guarded_mock_predict(task, alpha):
    """The mock reply with the neighbor sum always under ``np.errstate``, as the former code took it."""
    if task.prev_estimate is None and not task.neighbor_values:
        return "NaN"
    if not task.neighbor_values:
        return format_value(task.prev_estimate)
    values = [x for _, x, _ in task.neighbor_values]
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.add.reduce(values)) / len(values)
    if task.prev_estimate is not None:
        value = alpha * task.prev_estimate + (1.0 - alpha) * value
    return format_value(value) if math.isfinite(value) else "NaN"


@st.composite
def near_overflow_tasks(draw):
    """Tasks whose neighbor sums come near, reach or pass the float max, with 1 to 20 values."""
    n = draw(st.integers(1, 20))
    # max|x| * n lands on either side of half the float max, where mock_predict's guard switches.
    top = min(2.0**1023 / n * draw(st.floats(0.25, 4.0)), np.finfo(float).max)
    fractions = draw(st.lists(st.sampled_from([1.0, 0.75]) | st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    # One sign for all, so the sum can overflow, or mixed, so inf and -inf can meet.
    sign = st.sampled_from([1.0, -1.0])
    signs = draw(st.lists(sign, min_size=n, max_size=n) | sign.map(lambda s: [s] * n))
    values = [s * x for s, x in zip(signs, [top] + [top * f for f in fractions])]
    order = draw(st.permutations(range(n)))
    prev = draw(st.none() | finite)
    return NodeTask(0, 1, prev, tuple((i + 1, values[i], True) for i in order))


@settings(max_examples=500)
@given(st.one_of(near_overflow_tasks(), st.lists(finite, min_size=1, max_size=20).map(
    lambda xs: NodeTask(0, 1, None, tuple((i + 1, x, True) for i, x in enumerate(xs))))),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
@example(NodeTask(0, 1, None, ((1, 1.7976931348623157e308, True), (2, 1.7976931348623157e308, True))), 0.5)
@example(NodeTask(0, 1, None, tuple((i, 2.0**1023 / 9 * 0.999, True) for i in range(1, 10))), 0.5)
# Eight or more values are summed pairwise, so partial sums of inf and -inf meet.
@example(NodeTask(0, 1, None, tuple((i, (-1) ** (i // 5) * 1.7976931348623157e308, True) for i in range(1, 10))), 0.5)
def test_mock_predict_matches_the_always_guarded_sum(task, alpha):
    # Tier-1 turns warnings into errors, so an overflow outside the guard fails here.
    assert mock_predict(task, alpha) == guarded_mock_predict(task, alpha)
