"""Per-node task construction, prompt rendering, reply parsing, fallback cascade."""

import json
from pathlib import Path

import numpy as np
import pytest

from graphfill._format import format_value
from graphfill.backends import MockBackend
from graphfill.graphs import Graph
from graphfill.harness import MessengerPredictor
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
from graphfill.signals import SamplingMask, observation_from_column

CORPUS = Path(__file__).parent / "data" / "parser_corpus.json"


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def obs_of(t, values):
    """Observation at step ``t``; None marks an absent node."""
    present = [v is not None for v in values]
    return observation_from_column([0.0 if v is None else v for v in values], SamplingMask(present), t)


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


def test_build_task_rejects_unknown_mode():
    # The predictor checks the mode once, when built; its step tables copy it.
    with pytest.raises(ValueError, match="neighbor_mode must be one of"):
        MessengerPredictor(MockBackend(), neighbor_mode="all")


# ---------------------------------------------------------------- rendering


def sample_step():
    """Hidden node 1's task at step 4 and the table it was built from."""
    table = StepTable(obs_of(4, [2.25, None, None]), np.array([2.0, 3.5, 1.75]), path3(), "observed-plus-stale")
    task = build_task(1, table, "m/s")
    assert task == NodeTask(1, 4, 3.5, ((0, 2.25, True), (2, 1.75, False)), "m/s")
    return task, table


def sample_prompt(template=None):
    task, table = sample_step()
    return render_prompt(task, template or PromptTemplate.default(), table)


def test_render_deterministic():
    tpl = PromptTemplate.default()
    assert sample_prompt(tpl) == sample_prompt(tpl)


def test_render_lists_each_neighbor_once():
    text = sample_prompt()
    assert text.count("- station") == 2
    assert "2.25" in text and "1.75" in text
    assert "observed at this time step" in text
    assert "estimate from the previous time step" in text


def test_render_includes_prev_units_and_instruction():
    text = sample_prompt()
    assert "3.5" in text
    assert "m/s" in text
    assert "single decimal number" in text
    assert "chat memory" in text
    assert "time step 4" in text


def test_render_no_neighbors_placeholder_line():
    table = StepTable(obs_of(2, [None]), np.array([1.0]), Graph(1), "observed-plus-stale")
    task = build_task(0, table, "m/s")
    assert task == NodeTask(0, 2, 1.0, (), units="m/s")
    text = render_prompt(task, PromptTemplate.default(), table)
    assert "(no neighbor values available)" in text


def test_an_observed_nodes_task_and_prompt_are_built_as_a_hidden_nodes_are():
    # A run asks for hidden nodes only; build_task and render_prompt serve every node of a table.
    table = sample_step()[1]
    task = build_task(0, table, "m/s")
    assert task == NodeTask(0, 4, 2.0, ((1, 3.5, False),), "m/s")
    assert [type(field) for field in task[:3]] == [int, int, float]
    assert "Previous estimate for station 0 (time step 3): 2\n" in render_prompt(task, PromptTemplate.default(), table)


def test_template_renders_an_escaped_instruction_block_as_literal_text():
    tpl = PromptTemplate(body="{neighbor_block}\n{instruction_block}\nliteral {{instruction_block}}")
    text = sample_prompt(tpl)
    assert text.endswith("\n" + PromptTemplate.instruction.format(node_id=1, time_index=4)
                         + "\nliteral {instruction_block}")
    assert text.count("single decimal number") == 1


@pytest.mark.parametrize("field", ["{instruction_block!r}", "{instruction_block:>80}", "{instruction_block!s:}"])
def test_template_with_a_converted_instruction_block_is_refused(field):
    # The instruction is compiled into the body, so a conversion or spec has nothing to act on.
    for body in ("{neighbor_block}\n" + field, "{neighbor_block}\n{instruction_block}\n" + field):
        with pytest.raises(TemplateError, match=r"\{instruction_block\}"):
            PromptTemplate(body=body)


def test_render_missing_placeholder_is_template_error():
    with pytest.raises(TemplateError):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n{mystery}")


def test_template_requires_neighbor_block():
    with pytest.raises(TemplateError):
        PromptTemplate(body="just text {instruction_block}")


@pytest.mark.parametrize("body, name", [
    ("Values: {{neighbor_block}}\n{instruction_block}", "neighbor_block"),
    ("{neighbor_block}\n{{instruction_block}}", "instruction_block"),
    ("{neighbor_block!r}\n{instruction_block}", "neighbor_block"),
])
def test_template_with_an_escaped_required_placeholder_is_refused(body, name):
    # An escaped placeholder is literal text: every prompt would show "{neighbor_block}" itself.
    with pytest.raises(TemplateError) as caught:
        PromptTemplate(body=body)
    assert str(caught.value) == f"template body is missing the {{{name}}} placeholder"


def test_template_guards_instruction_marks():
    lowered = PromptTemplate.instruction.lower()
    for mark in ("single decimal number", "chat memory", "{time_index}"):
        assert mark in lowered
    with pytest.raises(TypeError):
        PromptTemplate(body="{neighbor_block} {instruction_block}", instruction="answer freely")


@pytest.mark.parametrize("extra", ["{node_id.x}", "{0}", "{bogus}", "{", "{node_id!x}", "{node_id:d}"])
def test_template_that_cannot_render_is_refused_when_built(extra):
    with pytest.raises(TemplateError):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n" + extra)


@pytest.mark.parametrize("extra", ["{units.upper}", "{node_id[0]}", "{time_index.real}", "{units[0]!r:>3}"])
def test_template_field_with_attribute_or_index_access_is_refused_when_built(extra):
    # Such a field renders an attribute of the placeholder's text (for a method, an
    # address that changes from run to run), never the value a template means.
    with pytest.raises(TemplateError, match="attribute or index access"):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n" + extra)


@pytest.mark.parametrize("extra, message", [
    ("{bogus}", "template references unknown placeholder 'bogus'"),
    ("{0}", "malformed template: Format string contains positional fields"),
    ("{}", "malformed template: Format string contains positional fields"),
    ("{node_id!x}", "malformed template: Unknown conversion specifier x"),
    ("{node_id:d}", "malformed template: Unknown format code 'd' for object of type 'str'"),
    ("{", "malformed template: Single '{' encountered in format string"),
    ("{node_id", "malformed template: expected '}' before end of string"),
])
def test_template_refusal_names_the_fault(extra, message):
    with pytest.raises(TemplateError) as caught:
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n" + extra)
    assert str(caught.value) == message


def test_template_with_a_field_nested_in_a_format_spec_is_refused_when_built():
    with pytest.raises(TemplateError, match="format spec"):
        PromptTemplate(body="{neighbor_block}\n{instruction_block}\n{node_id:{units}}")
    # A plain format spec renders with every value, so it is kept.
    PromptTemplate(body="{neighbor_block}\n{instruction_block}\n{node_id:>4}")


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


def test_fallback_stays_finite_when_the_sum_overflows():
    g = path3()
    big = np.finfo(float).max
    assert fallback_value(1, np.array([1e308, 1e308]), obs_of(0, [1.0, None, 1.0]), g) == 1e308
    assert fallback_value(1, np.array([]), obs_of(0, [big, None, big]), g) == big
    dark = Graph(4, [(0, 1)])  # node 0's only neighbor is absent: the mean of all observed
    assert fallback_value(0, np.array([]), obs_of(0, [None, None, -big, -big]), dark) == -big
    value = fallback_value(1, np.array([big, -1e308, big]), obs_of(0, [1.0, None, 1.0]), g)
    assert np.isfinite(value) and value > 0
    # Nine values are summed pairwise, so partial sums of inf and -inf meet, with no warning.
    mixed = np.array([big] * 4 + [-big] * 4 + [0.0])
    assert fallback_value(1, mixed, obs_of(0, [1.0, None, 1.0]), g) == 0.0


def test_fallback_always_finite():
    rng = np.random.default_rng(3)
    g = star4()
    for _ in range(50):
        history = rng.standard_normal(rng.integers(0, 4))
        present = rng.random(4) < 0.5
        obs = observation_from_column(rng.standard_normal(4), SamplingMask(present), 0)
        value = fallback_value(int(rng.integers(0, 4)), history, obs, g)
        assert np.isfinite(value)
