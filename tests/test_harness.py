"""Online loop, causality guard, MSE evaluation, result serialization, comparison."""

import hashlib

import numpy as np
import pytest

from graphfill.backends import (
    BackendConfig,
    MockBackend,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    prompt_sha256,
)
from graphfill.filters import FilterConfig
from graphfill import backends, harness
from graphfill.graphs import Graph, knn_graph
from graphfill.harness import (
    CausalityError,
    CausalSignalView,
    EstimateState,
    FilterPredictor,
    MessengerPredictor,
    Predictor,
    RunResult,
    ZeroPredictor,
    compare,
    evaluate_mse,
    graph_sha256,
    mse_over_time,
    run_online,
    signal_sha256,
)
from graphfill.signals import (
    MaskSpec,
    SamplingMask,
    SignalSeries,
    generate_mask,
    observation_from_column,
    synth_bandlimited,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def toy_series():
    return SignalSeries(
        np.array(
            [
                [10.25, 10.5, 11.75, 12.5],
                [20.5, 21.25, 22.75, 23.5],
                [30.75, 31.5, 32.25, 33.75],
            ]
        ),
        units="m/s",
    )


def mock_predictor(alpha=0.5):
    return MessengerPredictor(MockBackend(alpha), units="m/s", name="mock")


# ---------------------------------------------------------------- causal view


def test_causal_view_allows_past_and_present():
    view = CausalSignalView(toy_series())
    view.advance(2)
    assert np.array_equal(view.column(2), [11.75, 22.75, 32.25])
    assert np.array_equal(view.column(0), [10.25, 20.5, 30.75])


def test_causal_view_blocks_future():
    view = CausalSignalView(toy_series())
    view.advance(1)
    with pytest.raises(CausalityError):
        view.column(2)
    assert view.access_log == [(1, 2)]


def test_causal_view_refuses_a_negative_index():
    # A bare slice at -1 would read the last column, the future.
    view = CausalSignalView(toy_series())
    view.advance(1)
    with pytest.raises(ValueError, match=r"time index -1 outside \[0, 4\)"):
        view.column(-1)
    assert view.access_log == [(1, -1)]


def test_causal_view_refuses_an_index_past_the_end():
    view = CausalSignalView(toy_series())
    view.advance(4)
    with pytest.raises(ValueError, match=r"time index 4 outside \[0, 4\)"):
        view.column(4)
    assert view.access_log == [(4, 4)]


def test_causal_view_column_is_a_read_only_view_of_the_series():
    series = toy_series()
    view = CausalSignalView(series)
    view.advance(3)
    col = view.column(1)
    assert np.array_equal(col, series.values[:, 1])
    assert np.shares_memory(col, series.values) and not col.flags.writeable
    with pytest.raises(ValueError):
        col[0] = 0.0


# ---------------------------------------------------------------- state


def test_estimate_state_history_accumulates():
    state = EstimateState(2, 3)
    assert state.estimates is None
    assert state.history(0).size == 0
    state.append(np.array([1.0, 0.0]), np.array([1]), np.array([2.0]))
    state.append(np.array([3.0, 4.0]), np.array([], dtype=np.intp), np.array([]))
    assert state.steps_completed == 2
    assert np.array_equal(state.estimates, [3.0, 4.0])
    assert np.array_equal(state.history(0), [1.0, 3.0])
    assert np.array_equal(state.matrix(), [[1.0, 3.0], [2.0, 4.0]])
    with pytest.raises(ValueError):
        state.history(1)[0] = 9.0  # predictors read the state, never write it


def test_estimate_state_rejects_bad_columns():
    state = EstimateState(2, 1)
    data, missing = np.array([1.0, 0.0]), np.array([1])
    with pytest.raises(ValueError, match="one value per missing node"):
        state.append(data, missing, np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="one value per missing node"):
        state.append(data, missing, np.float64(2.0))  # would broadcast
    with pytest.raises(ValueError, match="non-finite"):
        state.append(data, missing, np.array([np.nan]))
    assert state.steps_completed == 0
    state.append(data, missing, np.array([2.0]))
    with pytest.raises(ValueError, match="already filled"):
        state.append(data, missing, np.array([4.0]))  # past the last time step
    assert np.array_equal(state.matrix(), [[1.0], [2.0]])


# ---------------------------------------------------------------- run_online


def test_nothing_missing_reproduces_truth_exactly():
    result = run_online(ZeroPredictor(), path3(), toy_series(),
                        MaskSpec(fraction=0.0, seed=0), runs=2)
    assert result.mse_all == 0.0
    for est in result.estimates:
        assert np.array_equal(est, toy_series().values)


def test_observed_nodes_clamped_exactly():
    series = toy_series()
    mask = SamplingMask(np.array([True, False, True]))
    result = run_online(mock_predictor(), path3(), series, mask, runs=1)
    est = result.estimates[0]
    assert np.array_equal(est[0, :], series.values[0, :])
    assert np.array_equal(est[2, :], series.values[2, :])


def test_estimate_matrices_are_read_only():
    # The writers keep each run's estimate text, so the matrices must not change under them.
    result = run_online(mock_predictor(), path3(), toy_series(), MaskSpec(fraction=0.4, seed=0), runs=2)
    for est in result.estimates:
        with pytest.raises(ValueError, match="read-only"):
            est[0, 0] = 1.0


def test_hand_traced_constant_signal_zero_error():
    # Node 1 is missing; its observed neighbors always read 25.0, matching its
    # own truth. With alpha=1 the mock bootstraps from the neighbor mean at
    # t=0 and then carries its own previous estimate forever.
    series = SignalSeries(np.full((3, 5), 25.0))
    mask = SamplingMask(np.array([True, False, True]))
    result = run_online(mock_predictor(alpha=1.0), path3(), series, mask, runs=1)
    assert np.allclose(result.estimates[0][1, :], 25.0, atol=1e-12)
    assert result.mse_all == 0.0


def test_causality_log_has_no_future_reads():
    result = run_online(mock_predictor(), path3(), toy_series(),
                        MaskSpec(fraction=0.3, seed=1), runs=3)
    for log in result.access_logs:
        assert log, "instrumented view was never consulted"
        for limit, t in log:
            assert t <= limit


def test_per_run_masks_resample():
    result = run_online(ZeroPredictor(), path3(), toy_series(),
                        MaskSpec(fraction=0.3, seed=0), runs=4)
    patterns = {tuple(m.observed.tolist()) for m in result.masks}
    assert len(patterns) > 1


def test_fixed_mask_spec_repeats():
    result = run_online(ZeroPredictor(), path3(), toy_series(),
                        MaskSpec(fraction=0.3, seed=0, resample=False), runs=3)
    patterns = {tuple(m.observed.tolist()) for m in result.masks}
    assert len(patterns) == 1


def test_fallback_count_identity():
    # all nodes missing except none observed -> every task infeasible at t=0
    g = Graph(2, [])
    series = SignalSeries(np.ones((2, 3)))
    mask = SamplingMask(np.array([False, False]))
    result = run_online(mock_predictor(), g, series, mask, runs=1)
    stats = result.per_run_stats[0]
    assert stats["fallback_uses"] == (
        stats["parse_failures"] + stats["backend_failures"] + stats["infeasible_tasks"]
    )
    assert stats["infeasible_tasks"] == 2  # only the cold start lacks context
    assert result.fallback_uses == stats["fallback_uses"]


def test_mock_run_calls_each_messenger_stage_once_per_task(monkeypatch):
    # Traced benchmark runs time these stages under these names.
    calls = {}
    for module, name in ((harness, "build_task"), (harness, "render_prompt"), (harness, "parse_response"),
                         (backends, "mock_predict")):
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    g = Graph(4, [(0, 1), (1, 2)])  # node 3 is isolated: infeasible on a cold start
    series = SignalSeries(np.arange(20.0).reshape(4, 5))
    mask = SamplingMask(np.array([True, False, True, False]))
    result = run_online(mock_predictor(), g, series, mask, runs=2)
    infeasible = sum(stats["infeasible_tasks"] for stats in result.per_run_stats)
    assert infeasible == 2
    tasks = 2 * 5 * 2  # runs x steps x hidden nodes
    assert calls == {"build_task": tasks, "render_prompt": tasks - infeasible,
                     "parse_response": tasks - infeasible, "mock_predict": tasks - infeasible}


class RequestKeepingMock(MockBackend):
    """The mock backend, keeping every request it answers."""

    def __init__(self):
        super().__init__(0.5)
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return super().complete(req)


@pytest.mark.parametrize("make", [
    lambda: SignalSeries(np.ones((3, 2))),
    lambda: SamplingMask([True, False, True]),
    lambda: run_online(ZeroPredictor(), path3(), SignalSeries(np.ones((3, 2))), MaskSpec(fraction=0.4, seed=0)),
    path3,
    lambda: observation_from_column(np.ones(3), SamplingMask([True, False, True]), 0),
], ids=["SignalSeries", "SamplingMask", "RunResult", "Graph", "Observation"])
def test_array_holders_compare_by_identity_and_hash(make):
    # A generated == would compare arrays, whose truth value is ambiguous, and arrays do not hash.
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("record", [False, True])
def test_every_request_carries_the_task_it_was_rendered_from(tmp_path, batch, record):
    from test_properties import former_render_prompt  # the former task-only formatter

    inner = RequestKeepingMock()
    backend = RecordingBackend(inner, tmp_path / "replay.jsonl") if record else inner
    predictor = MessengerPredictor(backend, units="m/s", batch=batch, keep_prompts=True)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    series = SignalSeries(np.arange(30.0).reshape(5, 6))
    result = run_online(predictor, g, series, MaskSpec(fraction=0.4, seed=1), runs=2)
    logged = [(f"run{r}-t{e['t']}-node{e['node']}", e["prompt"])
              for r, log in enumerate(result.prompt_logs) for e in log]
    assert len(logged) > 10
    assert [(req.request_id, req.prompt) for req in inner.requests] == logged
    for req in inner.requests:
        task = req.task
        assert req.request_id.endswith(f"-t{task.time_index}-node{task.node_id}")
        assert req.prompt == former_render_prompt(task, predictor.template)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0])
def test_predictor_refuses_a_non_finite_or_negative_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        MessengerPredictor(MockBackend(), temperature=temperature)


@pytest.mark.parametrize("max_tokens", [0, -3])
def test_predictor_refuses_max_tokens_below_one_when_built(max_tokens):
    # Refused here, not by the first request of a run.
    with pytest.raises(ValueError, match="max_tokens must be at least 1"):
        MessengerPredictor(MockBackend(), max_tokens=max_tokens)


def test_predictor_keeps_no_prompts_unless_asked():
    mask = SamplingMask(np.array([True, False, True]))
    default = run_online(mock_predictor(), path3(), toy_series(), mask, runs=2)
    assert default.prompt_logs == [[], []]
    kept = MessengerPredictor(MockBackend(0.5), units="m/s", keep_prompts=True)
    logs = run_online(kept, path3(), toy_series(), mask, runs=2).prompt_logs
    assert [len(log) for log in logs] == [4, 4]  # one hidden node, four steps


def ring6():
    return Graph(6, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (4, 5, 0.25), (5, 0, 1.5)])


def ring6_series():
    return SignalSeries(np.random.default_rng(4).normal(size=(6, 7)), units="m/s")


@pytest.mark.parametrize("make", [
    ZeroPredictor,
    lambda: FilterPredictor("glms", FilterConfig(bandwidth=None)),
    lambda: FilterPredictor("gsign", FilterConfig(mu=0.25, bandwidth=3)),
    lambda: MessengerPredictor(MockBackend(0.5), units="m/s", keep_prompts=True),
    lambda: MessengerPredictor(MockBackend(0.5), units="m/s", batch=True),
], ids=["zero", "glms", "gsign", "mock-prompts", "mock-batch"])
def test_a_run_never_writes_its_predictor(make):
    predictor = make()
    before = dict(vars(predictor))
    result = run_online(predictor, ring6(), ring6_series(), MaskSpec(0.5, seed=2), runs=3)
    assert result.runs == 3
    after = vars(predictor)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("kind", ["glms", "gsign"])
def test_runs_of_one_filter_stepped_alternately_match_sequential_runs(kind):
    # Runs share only their inputs, so interleaving their steps changes no bit.
    g, series, spec = ring6(), ring6_series(), MaskSpec(0.5, seed=5)
    predictor = FilterPredictor(kind, FilterConfig(mu=0.7))
    want = run_online(predictor, g, series, spec, runs=2)
    masks = [spec.mask_for_run(r, g.num_nodes) for r in range(2)]
    runs = [predictor.reset(g, mask, run_index=r) for r, mask in enumerate(masks)]
    states = [EstimateState(g.num_nodes, series.num_steps) for _ in runs]
    for t in range(series.num_steps):
        for run, mask, state in zip(runs, masks, states):
            obs = observation_from_column(series.values[:, t], mask, t)
            state.append(obs.data, mask.missing, run.predict_missing(t, obs, state))
    assert [state.matrix().tobytes() for state in states] == [est.tobytes() for est in want.estimates]


@pytest.mark.parametrize("name, make", [
    ("seed", lambda count: MaskSpec(0.5, count)),
    ("seed", lambda count: generate_mask(4, 0.5, count)),
    ("seed", lambda count: synth_bandlimited(path3(), 2, 0.5, 1.0, 3, count)),
    ("n", lambda count: generate_mask(count, 0.5, 0)),
    ("bandwidth", lambda count: synth_bandlimited(path3(), count, 0.5, 1.0, 3, 0)),
    ("t_len", lambda count: synth_bandlimited(path3(), 2, 0.5, 1.0, count, 0)),
    ("k", lambda count: knn_graph(np.random.default_rng(0).random((6, 2)), count)),
    ("bandwidth", lambda count: FilterConfig(bandwidth=count)),
    ("max_tokens", lambda count: MessengerPredictor(MockBackend(), max_tokens=count)),
    ("runs", lambda count: run_online(ZeroPredictor(), path3(), toy_series(), MaskSpec(0.3, 0), runs=count)),
], ids=["MaskSpec", "generate_mask", "synth_bandlimited", "generate_mask_n", "synth_bandlimited_bandwidth",
        "synth_bandlimited_t_len", "knn_graph", "FilterConfig", "MessengerPredictor", "run_online"])
def test_a_count_that_is_not_an_integer_is_refused_not_truncated(name, make):
    make(np.int64(2))  # numpy integers are integers
    for count in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {count!r}"):
            make(count)


def non_text_transport(url, headers, payload, timeout):
    """A 200 reply for every prompt; about half carry a number or a list, not text."""
    prompt = payload["messages"][0]["content"]
    content = ["1.5", 2.5, ["2.5"], "3.5"][int(prompt_sha256(prompt), 16) % 4]
    return 200, {"choices": [{"message": {"content": content}}]}


def non_text_remote(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    return RemoteBackend(BackendConfig(kind="remote"), transport=non_text_transport,
                         sleep=lambda s: None)


def test_remote_replies_that_are_not_text_are_counted_backend_failures(monkeypatch):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    series = SignalSeries(np.arange(30.0).reshape(5, 6))
    predictor = MessengerPredictor(non_text_remote(monkeypatch), keep_prompts=True)
    result = run_online(predictor, g, series, MaskSpec(fraction=0.4, seed=1), runs=2)
    for stats, log in zip(result.per_run_stats, result.prompt_logs):
        not_text = sum(int(prompt_sha256(e["prompt"]), 16) % 4 in (1, 2) for e in log)
        assert 0 < not_text < len(log)
        assert stats["backend_failures"] == not_text
        assert stats["parse_failures"] == 0
        assert stats["fallback_uses"] == not_text + stats["infeasible_tasks"]
    assert np.isfinite(result.estimates).all()


def test_a_batched_reply_with_no_text_fails_the_whole_batch(monkeypatch):
    # A reply with no text is no lines, so the count guard fails every item; the run goes on.
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    backend = RemoteBackend(BackendConfig(kind="remote"), sleep=lambda s: None,
                            transport=lambda *a: (200, {"choices": [{"message": {"content": None}}]}))
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    series = SignalSeries(np.arange(30.0).reshape(5, 6))
    mask = SamplingMask(np.array([True, False, True, False, True]))
    result = run_online(MessengerPredictor(backend, batch=True), g, series, mask, runs=1)
    stats = result.per_run_stats[0]
    assert stats["backend_failures"] == 2 * series.num_steps  # every hidden node at every step
    assert stats["parse_failures"] == stats["infeasible_tasks"] == 0
    assert stats["fallback_uses"] == stats["backend_failures"]
    assert np.isfinite(result.estimates).all()


def test_a_recorded_run_with_non_text_replies_replays_to_the_same_failures(tmp_path, monkeypatch):
    # Failed replies are never recorded, so the replay misses them: the same
    # tasks fall back as backend failures and the estimates are the same.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    series = SignalSeries(np.arange(30.0).reshape(5, 6))
    spec, path = MaskSpec(fraction=0.4, seed=1), tmp_path / "replay.jsonl"
    recording = RecordingBackend(non_text_remote(monkeypatch), path)
    live = run_online(MessengerPredictor(recording), g, series, spec, runs=2)
    replayed = run_online(MessengerPredictor(ReplayBackend(path)), g, series, spec, runs=2)
    assert all(stats["backend_failures"] > 0 for stats in replayed.per_run_stats)
    assert replayed.per_run_stats == live.per_run_stats
    assert all(np.array_equal(a, b) for a, b in zip(live.estimates, replayed.estimates))


def test_filter_run_calls_each_traced_stage_once_per_step(monkeypatch):
    # Traced benchmark runs time these stages under these names; per-run
    # work moved out of the step must not take a stage with it.
    calls = {}

    def counting(name, inner):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        return counted

    monkeypatch.setattr(harness, "observation_from_column",
                        counting("observation_from_column", harness.observation_from_column))
    monkeypatch.setattr(harness, "filter_step", counting("filter_step", harness.filter_step))
    monkeypatch.setattr(EstimateState, "append", counting("append", EstimateState.append))
    series, runs = toy_series(), 3
    for kind in ("glms", "gsign"):
        calls.clear()
        run_online(FilterPredictor(kind, FilterConfig(mu=0.5, bandwidth=2)), path3(), series,
                   MaskSpec(fraction=0.3, seed=1), runs=runs)
        steps = runs * series.num_steps
        assert calls == {"observation_from_column": steps, "filter_step": steps, "append": steps}


def test_runs_sharing_one_mask_spec_match_runs_with_fresh_specs():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    series = SignalSeries(np.sin(np.arange(30.0)).reshape(5, 6))
    shared = MaskSpec(fraction=0.4, seed=3)

    def glms(spec):
        result = run_online(FilterPredictor("glms", FilterConfig(mu=0.5, bandwidth=2)), g, series, spec, runs=3)
        return [e.tobytes() for e in result.estimates], repr((result.mse_all, result.mse_missing, result.per_run_mse))

    fresh = glms(MaskSpec(fraction=0.4, seed=3))
    assert glms(shared) == fresh
    assert glms(shared) == fresh  # the second job reads the masks the first one drew
    assert glms(MaskSpec(fraction=0.4, seed=3)) == fresh


def test_signal_sha256_is_kept_on_the_series(monkeypatch):
    series = SignalSeries(np.arange(12.0).reshape(3, 4))
    direct = hashlib.sha256(b"(3, 4)" + np.ascontiguousarray(series.values).tobytes()).hexdigest()
    assert signal_sha256(series) == direct
    digests, sha256 = [], hashlib.sha256
    monkeypatch.setattr(harness.hashlib, "sha256", lambda *a: digests.append(a) or sha256(*a))
    assert signal_sha256(series) == direct
    assert digests == []  # computed on the first call only
    assert signal_sha256(SignalSeries(series.values)) == direct
    assert len(digests) == 1


class ConstantPredictor(Predictor):
    name = "constant"

    def __init__(self, values):
        self.values = values

    def predict_missing(self, t, obs, state):
        return np.array(self.values)


@pytest.mark.parametrize("values", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan],
                                    [0.0, 0.0, 0.0], [[0.0, 0.0]]])
def test_non_finite_or_miscounted_proposals_are_refused(values):
    mask = SamplingMask(np.array([True, False, False]))
    with pytest.raises(ValueError, match="non-finite|one value per missing node"):
        run_online(ConstantPredictor(values), path3(), toy_series(), mask)


@pytest.mark.parametrize("observed", [[True, False, True], [False, False, True]])
def test_overflowing_mock_reply_is_a_counted_fallback(observed):
    # Neighbour means of values this large overflow to inf. The mock replies
    # "NaN", a parse failure, and the fallback's mean stays finite.
    series = SignalSeries(np.full((3, 6), 1e308))
    result = run_online(mock_predictor(), path3(), series, SamplingMask(np.array(observed)))
    stats = result.per_run_stats[0]
    assert stats["parse_failures"] > 0
    assert stats["fallback_uses"] == (
        stats["parse_failures"] + stats["backend_failures"] + stats["infeasible_tasks"]
    )
    assert np.array_equal(result.estimates[0], series.values)
    assert result.mse_all == 0.0


class DroppingBackend(MockBackend):
    """Gives one outcome too few for every step, on either path."""

    def complete_each(self, reqs):
        return super().complete_each(reqs)[:-1]

    def complete_batch(self, reqs):
        return super().complete_batch(reqs)[:-1]


@pytest.mark.parametrize("batch", [False, True])
def test_a_backend_giving_too_few_outcomes_stops_the_run(batch):
    # zip would drop the last hidden node's request and leave its estimate unset.
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    series = SignalSeries(np.arange(8.0).reshape(4, 2))
    predictor = MessengerPredictor(DroppingBackend(), batch=batch)
    with pytest.raises(ValueError, match=r"^mock backend: 1 outcomes for 2 requests$"):
        run_online(predictor, g, series, SamplingMask(np.array([True, False, True, False])))


def test_graph_fingerprint_is_computed_once_per_graph(monkeypatch):
    calls = []
    canonical_text = Graph.canonical_text
    monkeypatch.setattr(Graph, "canonical_text", lambda g: calls.append(g) or canonical_text(g))
    g, twin, other = path3(), path3(), Graph(3, [(0, 1)])
    for _ in range(3):
        result = run_online(ZeroPredictor(), g, toy_series(), MaskSpec(fraction=0.3, seed=0))
    want = hashlib.sha256(canonical_text(g).encode("utf-8")).hexdigest()
    assert result.context["graph_sha256"] == graph_sha256(g) == graph_sha256(twin) == want
    assert graph_sha256(other) == hashlib.sha256(b"3\n0 1 1").hexdigest()
    assert calls == [g, twin, other]


def test_dimension_mismatches_rejected():
    with pytest.raises(ValueError):
        run_online(ZeroPredictor(), path3(), SignalSeries(np.ones((2, 3))),
                   MaskSpec(fraction=0.0, seed=0))
    with pytest.raises(ValueError):
        run_online(ZeroPredictor(), path3(), toy_series(),
                   SamplingMask(np.array([True, False])))


class ScalarPredictor(ZeroPredictor):
    def predict_missing(self, t, obs, state):
        return np.zeros(1)


def test_proposal_count_must_match_missing_nodes():
    mask = SamplingMask(np.array([True, False, False]))
    with pytest.raises(ValueError, match="one value per missing node"):
        run_online(ScalarPredictor(), path3(), toy_series(), mask)


def test_runs_must_be_positive():
    with pytest.raises(ValueError):
        run_online(ZeroPredictor(), path3(), toy_series(), MaskSpec(0.3, 0), runs=0)


def test_filter_predictor_through_harness():
    # bandwidth must stay below N: a full-band projector is the identity and
    # cannot propagate observed information to the missing rows at all.
    series = toy_series()
    result = run_online(FilterPredictor("glms", FilterConfig(mu=0.5, bandwidth=2)),
                        path3(), series, MaskSpec(fraction=0.3, seed=2), runs=2)
    zero = run_online(ZeroPredictor(), path3(), series, MaskSpec(fraction=0.3, seed=2), runs=2)
    assert result.mse_all < zero.mse_all
    assert result.config["kind"] == "glms"
    assert result.config["bandwidth"] == 2


# ---------------------------------------------------------------- mse


def test_mse_zero_when_equal():
    series = toy_series()
    report = evaluate_mse([np.array(series.values)], series)
    assert report.all_nodes == 0.0


def test_mse_closed_form_example():
    truth = SignalSeries(np.array([[3.0]]))
    estimates = [np.array([[1.0]])] * 5
    report = evaluate_mse(estimates, truth)
    assert report.all_nodes == 4.0


def test_mse_matches_triple_loop():
    rng = np.random.default_rng(21)
    truth_vals = rng.standard_normal((4, 3))
    truth = SignalSeries(truth_vals)
    runs = [rng.standard_normal((4, 3)) for _ in range(2)]
    masks = [SamplingMask(np.array([True, False, True, False])),
             SamplingMask(np.array([False, True, True, True]))]
    report = evaluate_mse(runs, truth, masks)

    total = 0.0
    for est in runs:
        for i in range(4):
            for t in range(3):
                total += (truth_vals[i, t] - est[i, t]) ** 2
    assert abs(report.all_nodes - total / (2 * 4 * 3)) <= 1e-12

    miss_terms = []
    for est, mask in zip(runs, masks):
        rows = mask.missing.tolist()
        acc = 0.0
        for i in rows:
            for t in range(3):
                acc += (truth_vals[i, t] - est[i, t]) ** 2
        miss_terms.append(acc / (len(rows) * 3))
    assert abs(report.missing_only - np.mean(miss_terms)) <= 1e-12


def test_mse_per_run_figures_match_single_run_reports():
    rng = np.random.default_rng(8)
    truth = SignalSeries(rng.standard_normal((5, 4)))
    runs = [rng.standard_normal((5, 4)) for _ in range(3)]
    masks = [generate_mask(5, 0.4, seed) for seed in range(3)]
    report = evaluate_mse(runs, truth, masks)
    assert report.per_run == tuple(
        evaluate_mse([est], truth, [mask])[:2] for est, mask in zip(runs, masks)
    )
    assert evaluate_mse(runs, truth).per_run == tuple((a, None) for a, _ in report.per_run)


def test_run_online_scores_all_runs_in_one_pass(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate_mse(*args, **kwargs)

    monkeypatch.setattr("graphfill.harness.evaluate_mse", counted)
    series = toy_series()
    result = run_online(mock_predictor(), path3(), series, MaskSpec(0.4, 2), runs=4)
    assert len(calls) == 1
    aggregate = evaluate_mse(result.estimates, series, result.masks)
    assert (result.mse_all, result.mse_missing) == aggregate[:2]
    for est, mask, mse in zip(result.estimates, result.masks, result.per_run_mse):
        single = evaluate_mse([est], series, [mask])
        assert mse == {"all_nodes": single.all_nodes, "missing_only": single.missing_only}


def test_mse_shape_checks():
    truth = SignalSeries(np.ones((2, 2)))
    with pytest.raises(ValueError):
        evaluate_mse([np.ones((3, 2))], truth)
    with pytest.raises(ValueError):
        evaluate_mse([], truth)


def test_mse_over_time_shapes_and_values():
    series = toy_series()
    result = run_online(ZeroPredictor(), path3(), series,
                        SamplingMask(np.array([True, False, True])), runs=1)
    steps, all_curve, missing_curve = mse_over_time(result)
    assert steps.shape == (4,)
    # zero predictor: missing node error at t is truth^2 of node 1
    assert np.allclose(missing_curve, series.values[1, :] ** 2, atol=1e-12)
    assert np.allclose(all_curve, (series.values[1, :] ** 2) / 3, atol=1e-12)


# ---------------------------------------------------------------- results


def test_run_result_round_trip(tmp_path):
    result = run_online(mock_predictor(), path3(), toy_series(),
                        MaskSpec(fraction=0.3, seed=5), runs=2)
    path = tmp_path / "result.json"
    result.save(path)
    back = RunResult.load(path)
    assert back.name == result.name
    assert back.mse_all == result.mse_all
    assert back.config == result.config
    for a, b in zip(back.estimates, result.estimates):
        assert np.array_equal(a, b)
    assert back.to_json() == result.to_json()


def test_run_result_json_deterministic():
    a = run_online(mock_predictor(), path3(), toy_series(), MaskSpec(0.3, 5), runs=3)
    b = run_online(mock_predictor(), path3(), toy_series(), MaskSpec(0.3, 5), runs=3)
    assert a.to_json() == b.to_json()
    assert a.wall_clock_s >= 0.0  # volatile field exists but is not serialized
    assert "wall_clock" not in a.to_json()


def test_run_result_excludes_secrets_and_prompts():
    result = run_online(mock_predictor(), path3(), toy_series(), MaskSpec(0.3, 5), runs=1)
    payload = result.to_json()
    assert "prompt" not in payload
    assert "api_key" not in payload.lower()


def test_per_step_csv(tmp_path):
    result = run_online(ZeroPredictor(), path3(), toy_series(), MaskSpec(0.0, 0), runs=1)
    path = tmp_path / "steps.csv"
    result.write_per_step_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,t,node,truth,estimate"
    assert len(lines) == 1 + 1 * 4 * 3


# ---------------------------------------------------------------- compare


def test_compare_ranks_three_results():
    series = toy_series()
    spec = MaskSpec(fraction=0.3, seed=1)
    named = [
        run_online(FilterPredictor("glms", FilterConfig(bandwidth=3)), path3(), series, spec, 2),
        run_online(FilterPredictor("gsign", FilterConfig(bandwidth=3)), path3(), series, spec, 2),
        run_online(mock_predictor(), path3(), series, spec, 2),
    ]
    table = compare(named)
    assert len(table.rows) == 3
    mses = [row.mse_all for row in table.rows]
    assert mses == sorted(mses)
    text = table.to_text()
    assert "glms" in text and "gsign" in text and "mock" in text


def test_compare_single_result():
    result = run_online(ZeroPredictor(), path3(), toy_series(), MaskSpec(0.3, 1), runs=1)
    assert len(compare([result]).rows) == 1


def test_compare_rejects_context_mismatch():
    series = toy_series()
    a = run_online(ZeroPredictor(), path3(), series, MaskSpec(0.3, 1), runs=1)
    b = run_online(ZeroPredictor(), path3(), series, MaskSpec(0.3, 2), runs=1)
    with pytest.raises(ValueError, match="context"):
        compare([a, b])


def test_compare_csv(tmp_path):
    result = run_online(ZeroPredictor(), path3(), toy_series(), MaskSpec(0.3, 1), runs=1)
    path = tmp_path / "table.csv"
    compare([result]).save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("model,mse_all,mse_missing")
    assert len(lines) == 2
