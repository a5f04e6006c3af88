"""Per-node task construction, prompt rendering, reply parsing, fallback cascade."""

import json
from pathlib import Path

import numpy as np
import pytest

from graphfill._format import format_value
from graphfill.graphs import Graph
from graphfill.messenger import (
    NodeTask,
    PromptTemplate,
    StepTable,
    TemplateError,
    build_task,
    fallback_value,
    parse_response,
    render_prompt,
)
from graphfill.signals import Observation

CORPUS = Path(__file__).parent / "data" / "parser_corpus.json"


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def obs_of(t, values):
    """Observation at step ``t``; None marks an absent node."""
    return Observation(t, [0.0 if v is None else v for v in values], [v is not None for v in values])


def star4():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------- build_task


def test_build_task_cold_start_observed_only():
    # middle node missing, left neighbor observed at 2.0, right neighbor missing
    obs = obs_of(0, [2.0, None, None])
    task = build_task(1, StepTable(obs, None, path3(), "observed-only"))
    assert task.prev_estimate is None
    assert task.neighbor_values == ((0, 2.0, True),)


def test_build_task_stale_estimates_join_later():
    obs = obs_of(1, [2.0, None, None])
    prev = np.array([9.0, 0.5, 1.5])
    task = build_task(1, StepTable(obs, prev, path3(), "observed-plus-stale"))
    assert task.prev_estimate == 0.5
    assert task.neighbor_values == ((0, 2.0, True), (2, 1.5, False))


def test_build_task_observed_only_drops_stale():
    obs = obs_of(1, [2.0, None, None])
    prev = np.array([9.0, 0.5, 1.5])
    task = build_task(1, StepTable(obs, prev, path3(), "observed-only"))
    assert [u for u, _, _ in task.neighbor_values] == [0]


def test_build_task_isolated_node_keeps_prev():
    g = Graph(4, [(0, 1)])
    obs = obs_of(3, [1.0, 2.0, 3.0, None])
    task = build_task(3, StepTable(obs, np.array([0.0, 0.0, 0.0, 4.2]), g))
    assert task.prev_estimate == 4.2
    assert task.neighbor_values == ()
    assert task.is_feasible


def test_build_task_infeasible_when_nothing_known():
    g = Graph(2, [])
    task = build_task(0, StepTable(obs_of(0, [None, 5.0]), None, g))
    assert not task.is_feasible


def test_build_task_never_includes_non_neighbors_or_self():
    g = star4()
    obs = obs_of(2, [None, 1.0, 2.0, 3.0])
    task = build_task(0, StepTable(obs, np.arange(4.0), g))
    ids = {u for u, _, _ in task.neighbor_values}
    assert 0 not in ids
    assert ids <= set(g.neighbors(0))


def test_build_task_non_finite_estimates_reach_the_task_check():
    obs = obs_of(1, [2.0, None, None])
    prev = np.array([np.nan, 0.5, np.inf])
    # node 0's estimate is unused (it is observed); node 2's only enters as a stale value
    assert build_task(1, StepTable(obs, prev, path3(), "observed-only")).neighbor_values == ((0, 2.0, True),)
    with pytest.raises(ValueError, match="neighbor value for node 2 is non-finite"):
        build_task(1, StepTable(obs, prev, path3(), "observed-plus-stale"))
    with pytest.raises(ValueError, match="previous estimate is non-finite"):
        build_task(2, StepTable(obs, prev, path3(), "observed-only"))


def test_build_task_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_task(1, StepTable(obs_of(0, [1.0, None, 2.0]), None, path3(), "all"))


def test_node_task_rejects_self_neighbor():
    with pytest.raises(ValueError, match="itself"):
        NodeTask(1, 0, None, ((1, 2.0, True),))


def test_node_task_rejects_duplicate_neighbor():
    with pytest.raises(ValueError, match="duplicate"):
        NodeTask(1, 0, None, ((0, 2.0, True), (0, 2.0, False)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_node_task_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        NodeTask(1, 0, None, ((0, bad, True),))
    with pytest.raises(ValueError, match="non-finite"):
        NodeTask(1, 0, bad, ())


def test_node_task_stores_plain_triples():
    task = NodeTask(np.int64(1), 0, np.float64(0.5), [(np.intp(0), np.float64(2.0), np.bool_(True))])
    assert task.neighbor_values == ((0, 2.0, True),)
    (u, x, observed), = task.neighbor_values
    assert (type(u), type(x), type(observed)) == (int, float, bool)
    assert type(task.prev_estimate) is float


# ---------------------------------------------------------------- rendering


def sample_task():
    return NodeTask(
        node_id=1,
        time_index=4,
        prev_estimate=3.5,
        neighbor_values=((0, 2.25, True), (2, 1.75, False)),
        units="m/s",
    )


def test_render_deterministic():
    tpl = PromptTemplate.default()
    assert render_prompt(sample_task(), tpl) == render_prompt(sample_task(), tpl)


def test_render_lists_each_neighbor_once():
    text = render_prompt(sample_task(), PromptTemplate.default())
    assert text.count("- station") == 2
    assert "2.25" in text and "1.75" in text
    assert "observed at this time step" in text
    assert "estimate from the previous time step" in text


def test_render_includes_prev_units_and_instruction():
    text = render_prompt(sample_task(), PromptTemplate.default())
    assert "3.5" in text
    assert "m/s" in text
    assert "single decimal number" in text
    assert "chat memory" in text
    assert "time step 4" in text


def test_render_no_neighbors_placeholder_line():
    task = NodeTask(0, 2, 1.0, (), units="m/s")
    text = render_prompt(task, PromptTemplate.default())
    assert "(no neighbor values available)" in text


def test_render_missing_placeholder_is_template_error():
    with pytest.raises(TemplateError):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n{mystery}")


def test_template_requires_neighbor_block():
    with pytest.raises(TemplateError):
        PromptTemplate(body="just text {instruction_block}")


def test_template_guards_instruction_marks():
    lowered = PromptTemplate.instruction.lower()
    for mark in ("single decimal number", "chat memory", "{time_index}"):
        assert mark in lowered
    with pytest.raises(TypeError):
        PromptTemplate(body="{neighbor_block} {instruction_block}", instruction="answer freely")


@pytest.mark.parametrize("extra", ["{node_id.x}", "{0}", "{bogus}", "{"])
def test_template_that_cannot_render_is_refused_when_built(extra):
    with pytest.raises(TemplateError):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n" + extra)


def test_template_load_matches_default(tmp_path):
    tpl = PromptTemplate.default()
    copy = tmp_path / "tpl.txt"
    copy.write_text(tpl.body)
    assert PromptTemplate.load(copy).sha256 == tpl.sha256


# ---------------------------------------------------------------- parsing


def test_parse_plain_number():
    assert parse_response("7.25").value == 7.25


def test_parse_prose():
    assert parse_response("The predicted wind speed is 6.4 m/s.").value == 6.4


def test_parse_nan_literal():
    assert parse_response("NaN").failure == "nan-literal"


def test_parse_empty_and_none():
    assert parse_response("").failure == "empty"
    assert parse_response(None).failure == "empty"


def test_parse_conflicting_numbers():
    assert parse_response("3.5 or maybe 4.0").failure == "multiple-conflicting"


def test_parse_never_raises_on_junk():
    for junk in ("???", "!!!", "\x00\x01", "e", "++", "-."):
        outcome = parse_response(junk)
        assert outcome.failure is not None


def test_parse_round_trips_rendered_values():
    rng = np.random.default_rng(6)
    for _ in range(200):
        value = float(rng.standard_normal() * 10.0 ** int(rng.integers(-6, 7)))
        parsed = parse_response(format_value(value))
        assert parsed.ok
        assert abs(parsed.value - value) <= 1e-12 * max(1.0, abs(value))


def test_parser_corpus_is_committed_and_well_formed():
    payload = json.loads(CORPUS.read_text())
    cases = payload["cases"]
    assert len(cases) == 20
    for case in cases:
        assert ("value" in case) != ("failure" in case)


# ---------------------------------------------------------------- fallback


def test_fallback_mean_of_history():
    g = path3()
    obs = obs_of(2, [1.0, None, 1.0])
    assert fallback_value(1, np.array([2.0, 4.0]), obs, g) == 3.0


def test_fallback_neighbor_mean_when_no_history():
    g = path3()
    obs = obs_of(0, [5.0, None, 9.0])
    # node 1's only observed neighbor values are 5.0 and 9.0
    assert fallback_value(1, np.array([]), obs, g) == 7.0


def test_fallback_single_neighbor():
    g = path3()
    obs = obs_of(0, [5.0, None, None])
    assert fallback_value(1, np.array([]), obs, g) == 5.0


def test_fallback_global_mean_when_neighbors_dark():
    g = Graph(4, [(0, 1), (2, 3)])
    # node 0's neighbor (1) is absent; nodes 2 and 3 are observed
    obs = obs_of(0, [None, None, 2.0, 6.0])
    assert fallback_value(0, np.array([]), obs, g) == 4.0


def test_fallback_terminal_zero():
    g = Graph(2, [])
    obs = obs_of(0, [None, None])
    assert fallback_value(0, np.array([]), obs, g) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fallback_stays_finite_when_the_sum_overflows():
    g = path3()
    big = np.finfo(float).max
    assert fallback_value(1, np.array([1e308, 1e308]), obs_of(0, [1.0, None, 1.0]), g) == 1e308
    assert fallback_value(1, np.array([]), obs_of(0, [big, None, big]), g) == big
    dark = Graph(4, [(0, 1)])  # node 0's only neighbor is absent: the mean of all observed
    assert fallback_value(0, np.array([]), obs_of(0, [None, None, -big, -big]), dark) == -big
    value = fallback_value(1, np.array([big, -1e308, big]), obs_of(0, [1.0, None, 1.0]), g)
    assert np.isfinite(value) and value > 0


def test_fallback_always_finite():
    rng = np.random.default_rng(3)
    g = star4()
    for _ in range(50):
        history = rng.standard_normal(rng.integers(0, 4))
        present = rng.random(4) < 0.5
        obs = Observation(0, rng.standard_normal(4), present)
        value = fallback_value(int(rng.integers(0, 4)), history, obs, g)
        assert np.isfinite(value)
