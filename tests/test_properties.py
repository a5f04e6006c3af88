"""Property tests: the reply parser round trip and its fast path, observations, the online loop's
invariants, the G-Sign step bound, the kNN graph's shape, template rendering and the mock's guarded sum;
and every file a run writes against a whole reference run in former code (``reference_run``)."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import string
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfill import backends, cli, harness
from graphfill._format import format_value
from graphfill.backends import MockBackend, TransportFailure, mock_predict, prompt_sha256
from graphfill.graphs import Graph, graph_sha256, knn_graph
from graphfill.filters import FILTER_KINDS, filter_step
from graphfill.harness import (
    FilterPredictor,
    MessengerPredictor,
    Predictor,
    RunResult,
    run_online,
)
from graphfill.messenger import (
    _PLACEHOLDERS,
    NEIGHBOR_MODES,
    NodeTask,
    PromptTemplate,
    TemplateError,
    _scan_response,
    parse_response,
)
from graphfill.signals import (
    MaskSpec,
    SamplingMask,
    SignalSeries,
    generate_mask,
    observation_from_column,
    signal_sha256,
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
        assert est.flags.c_contiguous  # as EstimateState.matrix promises
        observed = mask.observed
        assert np.array_equal(est[observed], truth.values[observed])
        for t in range(steps):
            assert np.array_equal(est[~observed, t], next(proposals))
        assert log == [(t, t) for t in range(steps)]


# ---------------------------------------------------------------- the former online loop
# The loop as it was before run-invariant work left the step: every step
# builds an Observation that copies the mask, the filter step projects with
# the former checked ``@`` products on the former Laplacian's eigenvectors,
# and the column is assembled through a boolean mask and checked with np.all.
# ``reference_run`` (below) runs it end to end.


def former_observation(t, column, observed):
    """The former Observation: a copy of the mask, and the column with 0.0 at the hidden nodes."""
    return SimpleNamespace(time_index=t, data=np.where(observed, column, 0.0), present=np.array(observed))


def former_laplacian(g):
    n = g.num_nodes
    lap = np.zeros((n, n))
    for u, v, w in g.edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def former_basis(g, bandwidth):
    """A C-contiguous copy of the former Laplacian's first F eigenvectors, each signed so that its
    largest-magnitude entry (the first on ties) is positive."""
    vectors = np.linalg.eigh(former_laplacian(g))[1]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(g.num_nodes)])
    signs[signs == 0] = 1.0
    return np.array((vectors * signs)[:, :bandwidth])


def former_filter_step(kind, estimate, obs, basis, mu):
    err = (obs.data - estimate) * obs.present
    if kind == "gsign":
        err = np.sign(err)
    return estimate + float(mu) * (basis @ (basis.T @ err))  # the former projector's apply: U (U^T e)


def former_proposals(kind, mu, bandwidth, g, observed):
    """The proposal step of one run of a filter kind, or of the zero predictor (kind None)."""
    if kind is None:
        return lambda obs, values: np.zeros(np.count_nonzero(~observed))
    basis, estimate = former_basis(g, bandwidth), np.zeros(g.num_nodes)

    def propose(obs, values):
        nonlocal estimate
        estimate = former_filter_step(kind, estimate, obs, basis, mu)
        return estimate[~observed]

    return propose


def former_loop(truth, observed, propose):
    """One run over the N x T ``truth``: ``propose(obs, values)`` fills each step's hidden nodes, and the
    clamped column is stored. Returns None and the values, or the refusal's text and the columns before it."""
    values = np.zeros(truth.shape)  # the former node-major state
    for t in range(truth.shape[1]):
        obs = former_observation(t, truth[:, t], observed)
        column = np.array(obs.data)
        column[~observed] = propose(obs, values)
        if not np.all(np.isfinite(column)):
            return "assembled estimate contains non-finite entries", values[:, :t]
        values[:, t] = column
    return None, values


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


# ---------------------------------------------------------------- filter and graph properties


@st.composite
def gsign_steps(draw):
    g = draw(weighted_graphs())
    n = g.num_nodes
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    data = draw(st.lists(finite, min_size=n, max_size=n))
    estimate = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    mu = draw(st.floats(1e-3, 10.0))
    return g, draw(st.integers(1, n)), observation_from_column(data, SamplingMask(present), 0), estimate, mu


@settings(deadline=None, max_examples=200)
@given(gsign_steps())
def test_gsign_step_norm_is_at_most_mu_sqrt_observed(case):
    g, bandwidth, obs, estimate, mu = case
    basis = former_basis(g, bandwidth)
    out = filter_step("gsign", estimate, obs, basis, mu)
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


@st.composite
def point_sets(draw, coordinate):
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


@settings(deadline=None, max_examples=200)
@given(point_sets(st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1.0, 1e-300])),
       st.data(), st.sampled_from(["unit", "gaussian"]))
def test_knn_graph_is_symmetric_without_self_loops_and_degree_at_least_k(pts, data, weight_mode):
    n = len(pts)
    k = data.draw(st.integers(1, n - 1))
    g = knn_graph(pts, k, weight_mode)
    assert all(u < v for u, v, _ in g.edges)  # each edge once, never a loop
    for v in range(n):
        assert v not in g.neighbors(v)
        assert all(v in g.neighbors(u) for u in g.neighbors(v))
        assert len(g.neighbors(v)) >= k


# ---------------------------------------------------------------- result writers


def former_json(result):
    """The result document from the result's public fields, laid out by ``json.dumps``."""
    runs = [{"mask_observed": [int(o) for o in mask.observed], "estimates": np.asarray(est).tolist(),
             "mse": mse, "stats": stats}
            for est, mask, mse, stats in zip(result.estimates, result.masks, result.per_run_mse, result.per_run_stats)]
    document = {"name": result.name, "config": result.config, "context": result.context, "runs": runs,
                "mse_all": result.mse_all, "mse_missing": result.mse_missing, "fallback_uses": result.fallback_uses}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def former_per_step_csv(result, truth):
    """The per-step CSV's bytes, row by row through ``csv.writer``, for the N x T ``truth`` array."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["run", "t", "node", "truth", "estimate"])
    for r, est in enumerate(result.estimates):
        mat = np.asarray(est)
        for t in range(mat.shape[1]):
            for node in range(mat.shape[0]):
                writer.writerow([r, t, node, repr(float(truth[node, t])), repr(float(mat[node, t]))])
    return fh.getvalue().encode()


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
def test_estimate_text_follows_an_in_place_edit(tmp_path, csv_first):
    est = np.array([[1.0, 2.5], [3.0, 4.0]])
    result = RunResult(
        name="edit", config={}, context={}, estimates=[est], masks=[SamplingMask([True, False])],
        per_run_mse=[{}], mse_all=0.0, mse_missing=0.0, fallback_uses=0, per_run_stats=[{}],
        truth=SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0]])),
    )
    written(result, tmp_path, csv_first)
    # The first edit keeps one differing cell, the second adds one.
    for cell, value in (((0, 1), 9.75), ((1, 1), 7.0)):
        est[cell] = value
        expect = written(dataclasses.replace(result), tmp_path)
        assert f",{value!r}\r\n".encode() in expect[1]
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


def test_json_writer_writes_each_estimate_row_on_its_own():
    # One write per row, so that a run's whole text is never built: the same bytes in one string cost peak memory.
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    for result in clamped_runs():
        writes.clear()
        fh = Recorder()
        result._write_json(fh)
        assert fh.getvalue() == former_json(result)
        rows = {("," if v else "[") + "\n        [\n          " + ",\n          ".join(map(repr, row)) + "\n        ]"
                for est in result.estimates for v, row in enumerate(est.tolist())}
        assert len(rows) > result.truth.num_nodes and rows <= set(writes)


# Only this writes what no run makes: estimate matrices with no rows or no steps; NaN and inf estimates,
# which json writes as NaN and Infinity and the CSV as nan and inf; estimates of -0.0 where the truth
# is 0.0 and the reverse; and nested configs with non-string and non-ASCII keys, which json quotes and escapes.
def test_to_json_matches_former_json_for_empty_estimate_matrices(tmp_path):
    result = RunResult(
        name="empty", config={}, context={"nested": {"list": []}},
        estimates=[np.zeros((2, 0)), np.zeros((0, 3))],
        masks=[SamplingMask([True, False])] * 2,
        per_run_mse=[{}, {}], mse_all=0.0, mse_missing=0.0, fallback_uses=0,
        per_run_stats=[{}, {}],
    )
    assert result.to_json() == former_json(result)
    truth = np.array([[0.0, -0.0, 1e16], [5e-324, -2.5, 0.1]])
    result = RunResult(
        name="odd", config={"filter": {2: [None, True, {'\u00e9"\n': -0.0}], 1: {1.5: [], -1.0: {}}}, "mu": 1e-7},
        context={"flags": {False: 1, True: 0}, "none": {None: 1.7976931348623157e308}, "units": "\u2028"},
        estimates=[np.array([[np.nan, 0.0, 1.0], [-5e-324, 2.0, 0.1]]),
                   np.array([[np.inf, 0.0, 1.0], [1.0, -np.inf, 0.1]]), -truth],
        masks=[SamplingMask([True, False])] * 3, per_run_mse=[{"all_nodes": 0.5, "missing_only": None}] * 3,
        mse_all=np.inf, mse_missing=-123456789.0, fallback_uses=0, per_run_stats=[{}, {"x": 1}, {}],
        truth=SignalSeries(truth),
    )
    result.save(tmp_path / "out.json")
    result.write_per_step_csv(tmp_path / "out.csv")
    assert (tmp_path / "out.json").read_bytes() == result.to_json().encode() == former_json(result).encode()
    assert (tmp_path / "out.csv").read_bytes() == former_per_step_csv(result, truth)


# The writer splices its streamed estimate rows into json.dumps's own text for everything else.
texts = st.sampled_from(["", "é ", '"\\\n\t\x00\x1f', "퟿\U0001f600"]) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts


def dicts(values):
    """Dicts of one key kind, so that their keys sort: text, numbers (int, float and bool) or None."""
    numbers = st.integers(-3, 3) | st.booleans() | st.floats(-2, 2)
    return (st.dictionaries(texts, values, max_size=3) | st.dictionaries(numbers, values, max_size=3)
            | st.dictionaries(st.none(), values, max_size=1))


json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3) | dicts(inner), max_leaves=8)


@st.composite
def written_results(draw):
    """A result with drawn head values and 0-2 runs, each on the streamed row path or the ``tolist`` path."""
    n, steps = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    truth = np.array(draw(st.lists(signal_values, min_size=n * steps, max_size=n * steps))).reshape(n, steps)
    has_truth = draw(st.booleans())
    estimates = []
    for _ in range(draw(st.integers(0, 2))):
        if has_truth and draw(st.booleans()):  # rows: finite, of the truth's shape, some cells the truth's own
            cells = st.sampled_from(truth.ravel().tolist()) | signal_values
            est = np.array(draw(st.lists(cells, min_size=n * steps, max_size=n * steps))).reshape(n, steps)
        else:  # tolist: a non-finite cell, or another shape
            shape = draw(st.sampled_from([(n, steps), (steps, n + 1), (0, steps), (n, 0)]))
            size = shape[0] * shape[1]
            est = np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=float).reshape(shape)
            if shape == (n, steps):
                est[draw(st.integers(0, n - 1)), draw(st.integers(0, steps - 1))] = draw(
                    st.sampled_from([np.nan, np.inf, -np.inf]))
        estimates.append(est)
    runs = len(estimates)
    return RunResult(
        name=draw(texts), config=draw(dicts(json_values)), context=draw(dicts(json_values)), estimates=estimates,
        masks=[SamplingMask(draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in range(runs)],
        per_run_mse=[draw(dicts(json_values)) for _ in range(runs)], mse_all=draw(st.floats()),
        mse_missing=draw(st.floats()), fallback_uses=draw(st.integers(0, 10**6)),
        per_run_stats=[draw(dicts(json_values)) for _ in range(runs)],
        truth=SignalSeries(truth) if has_truth else None,
    )


@settings(deadline=None, max_examples=100)
@given(written_results())
def test_to_json_is_json_dumps_of_the_document(result):
    assert result.to_json() == former_json(result)


# ---------------------------------------------------------------- the former messenger step
# The former build_task, render_prompt and mock_predict, on tasks whose
# neighbor entries are (node id, value, observed now) and labelled when rendered.

FORMER_LABELS = {True: "observed at this time step", False: "estimate from the previous time step"}


def former_build_task(v, obs, prev, g, mode, units):
    entries = []
    for u in g.neighbors(v):
        if obs.present[u]:
            entries.append((u, float(obs.data[u]), True))
        elif mode == "observed-plus-stale" and prev is not None:
            entries.append((u, float(prev[u]), False))
    prev_estimate = None if prev is None else float(prev[v])
    return SimpleNamespace(node_id=v, time_index=obs.time_index, prev_estimate=prev_estimate,
                           neighbor_values=entries, units=units)


def former_render_prompt(task, template):
    if task.prev_estimate is not None:
        prev_block = (f"Previous estimate for station {task.node_id} "
                      f"(time step {task.time_index - 1}): {format_value(task.prev_estimate)}")
    else:
        prev_block = f"No previous estimate is available for station {task.node_id}."
    neighbor_block = "\n".join(f"- station {u}: {format_value(x)} ({FORMER_LABELS[observed]})"
                               for u, x, observed in task.neighbor_values)
    mapping = {"node_id": str(task.node_id), "time_index": str(task.time_index),
               "units": task.units or "unspecified units", "prev_estimate_block": prev_block,
               "neighbor_block": neighbor_block or "(no neighbor values available)"}
    return template.body.replace("{instruction_block}", template.instruction).format_map(mapping)


def former_mock_predict(task, alpha):
    """The mock's reply to a task with a previous estimate or a neighbor value, the only tasks a run asks."""
    if not task.neighbor_values:
        return format_value(task.prev_estimate)
    value = float(np.mean([x for _, x, _ in task.neighbor_values]))
    if task.prev_estimate is not None:
        value = alpha * task.prev_estimate + (1.0 - alpha) * value
    return format_value(value)


# ---------------------------------------------------------------- end to end: every file a run writes
# ``reference_run`` is a whole run in plain per-run, per-step, per-node Python:
# the former loop and filter step, the former messenger task, prompt and mock
# reply, and the fallback cascade as the README states it; ``reference_files``
# writes it with the former writers. The property compares their bytes with
# every file ``cli.main`` writes.

TEMPLATE = PromptTemplate.default()
FAILED = object()  # a request the backend failed; a reply with no text is None
CREDENTIAL = "GRAPHFILL_TEST_KEY"


def remote_reply(prompt):
    """The fault transport's last word on ``prompt``, picked by its hash: a text, None (no text) or FAILED."""
    digest = prompt_sha256(prompt)
    fault = int(digest[0], 16)  # 0-1: HTTP 429 once; 2: HTTP 500; 3: connection reset; 4: malformed body
    return {2: FAILED, 3: FAILED, 4: FAILED, 5: None, 6: "NaN", 7: "3 or 4"}.get(
        fault, f"about {int(digest[1:9], 16) / 7919!r}")


def fault_transport():
    """A transport that answers each prompt as :func:`remote_reply` says, after the faults its hash picks."""
    limited = set()

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        fault = int(prompt_sha256(prompt)[0], 16)
        if fault < 2 and prompt not in limited:
            limited.add(prompt)
            return 429, {}
        if fault == 3:
            raise TransportFailure("connection reset")
        reply = {"choices": [{"message": {"content": remote_reply(prompt)}}]}
        return {2: (500, {}), 4: (200, {"choices": []})}.get(fault, (200, reply))

    return transport


class E2ECase(NamedTuple):
    values: np.ndarray  # the N x T signal
    graph: tuple  # ("edges", [(u, v, w), ...]) or ("coordinates", points, k, weight mode)
    mask: tuple  # ("per-run" or "fixed", fraction, seed), or ("explicit", observed flags)
    path: str  # glms, gsign, zero, mock, batch (mock --batch), replay (of a mock recording) or llm
    runs: int = 1
    record: bool = False  # the llm run is a replay-record
    mode: str = "observed-plus-stale"
    units: str = ""
    mu: float = 0.5
    bandwidth: int | None = None
    alpha: float = 0.5


def former_fallback(v, history, obs, g):
    """The README's cascade: the mean of the node's history, of its observed neighbors, of every observed node; 0.0."""
    for values in (history, [obs.data[u] for u in g.neighbors(v) if obs.present[u]], obs.data[obs.present]):
        if len(values):
            return float(np.mean(values))
    return 0.0


def former_messenger_step(obs, values, g, case, answer, stats, records):
    """Each hidden node in turn: the former task, its prompt and ``answer``, the full-scan parse or the fallback."""
    t = obs.time_index
    proposals = []
    for v in np.flatnonzero(~obs.present).tolist():
        task = former_build_task(v, obs, values[:, t - 1] if t else None, g, case.mode, case.units)
        reason = "infeasible_tasks"
        if task.prev_estimate is not None or task.neighbor_values:
            prompt = former_render_prompt(task, TEMPLATE)
            text = answer(task, prompt)
            reason = "backend_failures"
            if text is not FAILED:
                records.append((prompt, text))
                value = _scan_response(text).value
                reason = None if value is not None else "parse_failures"
        if reason:
            stats[reason] += 1
            stats["fallback_uses"] += 1
            value = former_fallback(v, values[v, :t], obs, g)
        proposals.append(value)
    return proposals


def bandwidth(case):
    """The filter bandwidth of the case's runs: its own, or the default round(0.3 N)."""
    return case.bandwidth or max(1, round(0.3 * len(case.values)))


def reference_run(case, g, name, runs, answer=None):
    """Each run's estimates, mask and stats, and the replies in request order, of the predictor ``name``:
    the messenger over the backend ``answer(task, prompt)``, or else a filter kind or zero."""
    kind, *spec = case.mask
    estimates, masks, per_run_stats, records = [], [], [], []
    for r in range(runs):
        observed = (np.array(spec[0]) if kind == "explicit"
                    else generate_mask(g.num_nodes, spec[0], spec[1] + r * (kind == "per-run")).observed)
        stats = {} if answer is None else dict.fromkeys(
            ("fallback_uses", "parse_failures", "backend_failures", "infeasible_tasks"), 0)
        propose = (former_proposals(None if name == "zero" else name, case.mu, bandwidth(case), g, observed)
                   if answer is None else
                   lambda obs, values: former_messenger_step(obs, values, g, case, answer, stats, records))
        refusal, values = former_loop(case.values, observed, propose)
        assert refusal is None  # |values| <= 1e300 and mu <= 2 never overflow
        estimates.append(values)
        masks.append(SamplingMask(observed))
        per_run_stats.append(stats)
    return estimates, masks, per_run_stats, records


def reference_files(case, g, name, backend, run):
    """The JSON, per-step CSV and MSE-curve bytes of ``run``, by file name; ``backend`` names the messenger's."""
    estimates, masks, per_run_stats, _ = run
    truth, runs = case.values, len(estimates)
    n, steps = truth.shape
    kind, *spec = case.mask
    flags = " ".join("1" if o else "0" for o in masks[0].observed)
    policy = ({"mode": kind, "observed_sha256": hashlib.sha256(flags.encode()).hexdigest()} if kind == "explicit"
              else {"mode": kind, "fraction": spec[0], "seed": spec[1]})
    if backend:
        snapshot = {"backend": backend, "neighbor_mode": case.mode, "units": case.units, "model": "gpt-3.5-turbo",
                    "temperature": 0.0, "max_tokens": 16, "batch": case.path == "batch",
                    "template_sha256": TEMPLATE.sha256, **({"mock_alpha": case.alpha} if "mock" in backend else {})}
    else:
        snapshot = {} if name == "zero" else {"kind": name, "mu": case.mu, "bandwidth": bandwidth(case),
                                              "init": "zeros"}
    sums, missing = [], []
    for est, mask in zip(estimates, masks):
        hidden = mask.missing
        sums.append(float(np.sum((truth - est) ** 2)))
        hidden_sum = float(np.sum((truth[hidden] - est[hidden]) ** 2))
        missing.append(hidden_sum / (len(hidden) * steps) if len(hidden) else 0.0)
    context = {"graph_sha256": graph_sha256(g), "signal_sha256": signal_sha256(SignalSeries(truth, case.units)),
               "num_nodes": n, "num_steps": steps, "units": case.units, "mask_policy": policy}
    result = SimpleNamespace(
        name=name, config={"predictor": name, "runs": runs, "mask": policy, **snapshot}, context=context,
        estimates=estimates, masks=masks, per_run_stats=per_run_stats,
        per_run_mse=[{"all_nodes": total / (n * steps), "missing_only": m} for total, m in zip(sums, missing)],
        mse_all=sum(sums) / (runs * n * steps), mse_missing=float(np.mean(missing)),
        fallback_uses=sum(stats.get("fallback_uses", 0) for stats in per_run_stats))
    curve = ["t,mse_all,mse_missing"]
    for t in range(steps):
        every = hidden_only = 0.0
        for est, mask in zip(estimates, masks):
            squares = ((truth[:, t] - est[:, t]) ** 2).tolist()
            every += sum(squares) / n  # a mean down a column adds the rows in order
            hidden = [squares[v] for v in mask.missing]
            hidden_only += sum(hidden) / len(hidden) if hidden else 0.0
        curve.append(f"{t},{every / runs!r},{hidden_only / runs!r}")
    return {f"{name}.json": former_json(result).encode(), f"{name}_per_step.csv": former_per_step_csv(result, truth),
            f"{name}_mse_over_time.csv": ("\n".join(curve) + "\n").encode()}


def reference_outputs(case, g):
    """Every file the case's commands write, by its path in the case's folder."""
    def files(folder, name, backend, run):
        return {f"{folder}/{file}": data for file, data in reference_files(case, g, name, backend, run).items()}

    def replay_file(records):
        return {"replay.jsonl": "".join(json.dumps({"prompt_sha256": prompt_sha256(prompt), "response_text": text,
                                                    "model": "gpt-3.5-turbo", "temperature": 0.0}, sort_keys=True)
                                        + "\n" for prompt, text in records).encode()}

    mock = lambda task, prompt: former_mock_predict(task, case.alpha)
    if case.path in ("zero", *FILTER_KINDS):
        return files("out", case.path, None, reference_run(case, g, case.path, case.runs))
    if case.path in ("mock", "batch"):
        return files("out", "mock", "mock", reference_run(case, g, "mock", case.runs, mock))
    if case.path == "llm":
        run = reference_run(case, g, "llm", case.runs, lambda task, prompt: remote_reply(prompt))
        if not case.record:
            return files("out", "llm", "remote", run)
        return {**files("out", "llm", "record+remote", run), **replay_file(run[3])}
    recorded = reference_run(case, g, "mock", 1, mock)  # a 1-run recording of the mock, replayed in every run
    replies = {prompt_sha256(prompt): text for prompt, text in recorded[3]}
    replayed = reference_run(case, g, "llm", case.runs, lambda task, prompt: replies.get(prompt_sha256(prompt), FAILED))
    return {**files("rec", "mock", "record+mock", recorded), **replay_file(recorded[3]),
            **files("out", "llm", "replay", replayed)}


def cli_outputs(case, folder):
    """Write the case's bundle into ``folder``, run its commands through ``cli.main``, read back what they wrote."""
    bundle = folder / "bundle"
    bundle.mkdir()
    rows = [[f"t{t}" for t in range(case.values.shape[1])], *([repr(x) for x in row] for row in case.values.tolist())]
    (bundle / "signal.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    manifest = ["signal = signal.csv", *([f"units = {case.units}"] if case.units else [])]
    if case.graph[0] == "edges":
        (bundle / "edges.txt").write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in case.graph[1]))
        manifest.append("edges = edges.txt")
    else:
        _, points, k, weights = case.graph
        (bundle / "coords.csv").write_text("node_id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n"
                                                                   for i, (x, y) in enumerate(points)))
        manifest += ["coordinates = coords.csv", f"knn_k = {k}", f"knn_weights = {weights}"]
    (bundle / "manifest.txt").write_text("\n".join(manifest) + "\n")
    args = ["--manifest", str(bundle / "manifest.txt"), "--runs", str(case.runs), "--neighbor-mode", case.mode,
            "--mock-alpha", repr(case.alpha), "--mu", repr(case.mu)]
    args += ["--bandwidth", str(case.bandwidth)] if case.bandwidth else []
    kind, *spec = case.mask
    if kind == "explicit":
        (bundle / "mask.txt").write_text(" ".join("1" if o else "0" for o in spec[0]) + "\n")
        args += ["--mask-file", str(bundle / "mask.txt")]
    else:
        args += ["--fraction", repr(spec[0]), "--seed", str(spec[1])] + (["--fixed-mask"] if kind == "fixed" else [])
    replay, out = ["--replay-out", str(folder / "replay.jsonl")], ["--out", str(folder / "out")]
    remote = ["--predictor", "llm", "--backend", "remote", "--credential-env", CREDENTIAL]
    commands = {
        "mock": [["run", *args, "--predictor", "mock", *out]],
        "batch": [["run", *args, "--predictor", "mock", "--batch", *out]],
        "replay": [["replay-record", *args, "--runs", "1", "--predictor", "mock", *replay, "--out", f"{folder}/rec"],
                   ["run", *args, "--predictor", "llm", "--backend", "replay", "--replay-file", replay[1], *out]],
        "llm": [["replay-record", *args, *remote, *replay, *out] if case.record else ["run", *args, *remote, *out]],
    }.get(case.path, [["run", *args, "--predictor", case.path, *out]])
    for argv in commands:
        assert cli.main(argv) == 0
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in folder.rglob("*") if p.is_file() and bundle not in p.parents}


@st.composite
def e2e_cases(draw):
    """A bundle of 3-25 nodes and 2-12 steps, from an edge list (at times with a hub) or coordinates, and its run."""
    n, steps = draw(st.integers(3, 25)), draw(st.integers(2, 12))
    # Drawn values at random places among uniform ones: a few draws, not one per cell.
    pool = np.array(draw(st.lists(signal_values, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.where(rng.random((n, steps)) < 0.5, rng.choice(pool, (n, steps)), rng.uniform(-1e3, 1e3, (n, steps)))
    if draw(st.booleans()):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)))
        if draw(st.booleans()):  # a hub: numpy sums 8 or more values pairwise
            chosen.update((0, v) for v in range(1, n))
        weight = st.sampled_from([1.0, 0.0, 5e-324, 1e16]) | st.floats(0.0, 10.0)
        graph = ("edges", [(u, v, draw(weight)) for u, v in sorted(chosen)])
    else:
        point = st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 10.0)] * 2)
        graph = ("coordinates", draw(st.lists(point, min_size=n, max_size=n)),
                 draw(st.integers(1, min(n - 1, 6))), draw(st.sampled_from(["unit", "gaussian"])))
    mask = draw(st.one_of(
        st.tuples(st.sampled_from(["per-run", "fixed"]), st.sampled_from([0.0, 0.3, 0.99]) | st.floats(0.0, 0.99),
                  st.integers(0, 2**16)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda flags: ("explicit", tuple(flags))),
    ))
    path = draw(st.sampled_from([*FILTER_KINDS, "zero", "mock", "batch", "replay", "llm"]))
    return E2ECase(values, graph, mask, path, draw(st.integers(1, 3)), draw(st.booleans()),
                   draw(st.sampled_from(NEIGHBOR_MODES)), draw(st.sampled_from(["", "m/s"])),
                   draw(st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 2.0)), draw(st.none() | st.integers(1, n)),
                   draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))


def chain(n):
    return "edges", [(v, v + 1, 1.0) for v in range(n - 1)]


@settings(deadline=None, max_examples=100)
@given(e2e_cases())
# a 300-step history, past numpy's 128-element pairwise-sum block
@example(E2ECase(np.random.default_rng(0).standard_normal((3, 300)) * 1e300, chain(3),
                 ("explicit", (False, True, True)), "llm", record=True))
@example(E2ECase(np.arange(-6.0, 6.0).reshape(4, 3) / 3, chain(4), ("explicit", (False,) * 4), "batch", runs=2))
@example(E2ECase(np.arange(-6.0, 6.0).reshape(4, 3) / 3, chain(4), ("explicit", (True,) * 4), "glms"))
@example(E2ECase(np.array([[-0.0, 0.0, -0.0], [1e300, -1e300, 0.0], [0.0, -0.0, 1e300]]), chain(3),
                 ("per-run", 0.3, 2), "zero", runs=3))
# zero and far-apart edge weights: a degree summed in another order rounds differently
@example(E2ECase(np.arange(-7.0, 8.0).reshape(5, 3) / 7, ("edges", [(0, 1, 0.0), (0, 2, 1.0), (1, 2, 1.0),
                                                                    (2, 3, 1e16), (3, 4, 5e-324)]),
                 ("per-run", 0.4, 0), "glms", runs=2, mu=0.3))
# a hidden hub with six observed and three stale neighbors, whose mean numpy sums pairwise
@example(E2ECase(np.random.default_rng(1).standard_normal((10, 3)), ("edges", [(0, v, 1.0) for v in range(1, 10)]),
                 ("explicit", (False,) * 4 + (True,) * 6), "mock", alpha=0.0))
@example(E2ECase(np.random.default_rng(2).standard_normal((12, 4)),
                 ("coordinates", np.random.default_rng(3).random((12, 2)).tolist(), 3, "unit"),
                 ("per-run", 0.3, 0), "gsign", mu=0.3, bandwidth=5))
# whole numbers and stale neighbors in the prompts of a recording, replayed with misses in its second run
@example(E2ECase(np.arange(-4.0, 14.0).reshape(6, 3), chain(6), ("per-run", 0.5, 1), "replay", runs=2, alpha=0.3))
@example(E2ECase(np.arange(-6.0, 6.0).reshape(4, 3) / 7, chain(4), ("explicit", (False, False, True, True)), "mock",
                 mode="observed-only", alpha=0.3))
def test_every_file_a_run_writes_matches_the_reference_run(case):
    g = (Graph(len(case.values), case.graph[1]) if case.graph[0] == "edges"
         else knn_graph_oracle(np.array(case.graph[1]), *case.graph[2:]))
    remote = lambda cfg: backends.make_backend(cfg, transport=fault_transport(), sleep=lambda s: None)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {CREDENTIAL: "k"}), \
            mock.patch.object(cli, "make_backend", remote), np.errstate(over="ignore", invalid="ignore"):
        got = cli_outputs(case, Path(tmp))
        want = reference_outputs(case, g)
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        assert got[name] == data, name


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
