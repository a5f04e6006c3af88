"""Per-node prediction tasks: local context assembly, prompt rendering, reply parsing, fallback."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from ._format import format_value
from .graphs import Graph
from .signals import Observation

__all__ = [
    "NodeTask",
    "StepTable",
    "PromptTemplate",
    "TemplateError",
    "ParsedPrediction",
    "NEIGHBOR_MODES",
    "build_task",
    "render_prompt",
    "parse_response",
    "fallback_value",
]

NEIGHBOR_MODES = ("observed-only", "observed-plus-stale")

_first, _second = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class NodeTask:
    """Everything a predictor may see for one missing node at one time step.

    ``neighbor_values`` holds one ``(node_id, value, observed)`` triple per
    one-hop neighbor that has a value: ``observed`` is True for a reading at
    this time step and False for that neighbor's estimate from the previous
    step. Neighbor ids are distinct and never the node's own, every value is
    finite, and a task never contains the node's own current ground truth. A
    task with no previous estimate and no neighbor values is infeasible; the
    caller falls back instead of predicting.
    """

    node_id: int
    time_index: int
    prev_estimate: float | None
    neighbor_values: tuple[tuple[int, float, bool], ...]
    units: str = ""

    def __post_init__(self):
        node_id = int(self.node_id)
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "time_index", int(self.time_index))
        if self.prev_estimate is not None:
            prev = float(self.prev_estimate)
            if not math.isfinite(prev):
                raise ValueError("previous estimate is non-finite")
            object.__setattr__(self, "prev_estimate", prev)
        entries = tuple([(int(u), float(x), bool(observed)) for u, x, observed in self.neighbor_values])
        ids = set(map(_first, entries))
        if node_id in ids or len(ids) != len(entries) or not all(map(math.isfinite, map(_second, entries))):
            # Something is wrong: walk the entries in order to name the first fault.
            seen = set()
            for u, x, _ in entries:
                if u == node_id:
                    raise ValueError(f"task for node {node_id} lists itself as a neighbor")
                if u in seen:
                    raise ValueError(f"duplicate neighbor {u} in task")
                if not math.isfinite(x):
                    raise ValueError(f"neighbor value for node {u} is non-finite")
                seen.add(u)
        object.__setattr__(self, "neighbor_values", entries)

    @property
    def is_feasible(self) -> bool:
        return self.prev_estimate is not None or len(self.neighbor_values) > 0


class TemplateError(ValueError):
    """Raised when a prompt template is malformed or lacks a required placeholder."""


DEFAULT_INSTRUCTION = (
    "Reply with a single decimal number and nothing else: your best estimate "
    "of the value at station {node_id} for time step {time_index} only. "
    "Do not use chat memory or anything from earlier exchanges; rely only on "
    "the information in this message."
)

_REQUIRED_BODY_PLACEHOLDERS = ("{neighbor_block}", "{instruction_block}")
_REQUIRED_INSTRUCTION_MARKS = ("single decimal number", "chat memory", "{time_index}")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt skeleton with named placeholders.

    The body must reference ``{neighbor_block}`` and ``{instruction_block}``;
    the instruction text must keep demanding a single decimal number, no chat
    memory, and a prediction for the current time step only.
    """

    body: str
    instruction: str = DEFAULT_INSTRUCTION

    def __post_init__(self):
        for placeholder in _REQUIRED_BODY_PLACEHOLDERS:
            if placeholder not in self.body:
                raise TemplateError(f"template body is missing the {placeholder} placeholder")
        lowered = self.instruction.lower()
        for mark in _REQUIRED_INSTRUCTION_MARKS:
            if mark.lower() not in lowered:
                raise TemplateError(f"instruction block must contain {mark!r}")

    @classmethod
    def load(cls, path: str | Path, instruction: str = DEFAULT_INSTRUCTION) -> "PromptTemplate":
        return cls(body=Path(path).read_text(), instruction=instruction)

    @classmethod
    def default(cls) -> "PromptTemplate":
        body = resources.files("graphfill").joinpath("templates/default_prompt.txt").read_text()
        return cls(body=body)

    @cached_property
    def text(self) -> str:
        """The body with the instruction spliced in, ready for ``format_map``."""
        return self.body.replace("{instruction_block}", self.instruction)

    @property
    def sha256(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.body.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.instruction.encode("utf-8"))
        return digest.hexdigest()


_NEIGHBOR_LABELS = {True: "observed at this time step", False: "estimate from the previous time step"}


def _neighbor_line(u: int, text: str, observed: bool) -> str:
    return f"- station {u}: {text} ({_NEIGHBOR_LABELS[observed]})"


class StepTable:
    """The context every task of one time step draws on, gathered once.

    At a step each node has at most one value to offer its neighbors: its
    reading when observed, else, in ``observed-plus-stale`` mode, its
    estimate from the previous step. For each node ``u``:

    - ``entries[u]`` is the ``(u, value, observed)`` triple that a
      neighboring node's task lists, or None when ``u`` offers nothing;
    - ``lines[u]`` is that triple's prompt line (None for a non-finite
      value, which every task refuses);
    - ``prev[u]`` is ``u``'s previous estimate, or None on a cold start;
    - ``prev_texts[u]`` is the decimal text of ``prev[u]`` for a hidden
      node, the same string its stale line shows, and None otherwise.

    Each value is formatted once per step, however many tasks show it. A
    table built by :meth:`for_task` holds just one task's nodes, keyed by id.
    """

    __slots__ = ("time_index", "obs", "graph", "mode", "entries", "lines", "prev", "prev_texts")

    def __init__(self, obs: Observation, prev: Sequence[float] | None, g: Graph,
                 mode: str = "observed-plus-stale"):
        if mode not in NEIGHBOR_MODES:
            raise ValueError(f"mode must be one of {NEIGHBOR_MODES}, got {mode!r}")
        n = g.num_nodes
        if obs.num_nodes != n:
            raise ValueError(f"observation covers {obs.num_nodes} nodes, graph has {n}")
        if prev is not None:
            prev = np.asarray(prev, dtype=float)
            if prev.shape != (n,):
                raise ValueError(f"previous estimates have shape {prev.shape}, expected ({n},)")
        self.time_index, self.obs, self.graph, self.mode = obs.time_index, obs, g, mode
        self.prev = [None] * n if prev is None else prev.tolist()
        self.entries, self.lines, self.prev_texts = [None] * n, [None] * n, [None] * n
        stale = mode == "observed-plus-stale"
        for u, (x, observed, before) in enumerate(zip(obs.data.tolist(), obs.present.tolist(), self.prev)):
            if not observed:
                if before is None:
                    continue
                x = before
                # A non-finite estimate gets no text: any task holding it refuses it.
                text = self.prev_texts[u] = format_value(x) if math.isfinite(x) else None
                if not stale:
                    continue
            else:
                text = format_value(x)
            self.entries[u] = (u, x, observed)
            if text is not None:
                self.lines[u] = _neighbor_line(u, text, observed)

    @classmethod
    def for_task(cls, task: "NodeTask") -> "StepTable":
        """The table of one task's own nodes, for rendering a task built elsewhere."""
        table = cls.__new__(cls)
        table.time_index, table.obs, table.graph, table.mode = task.time_index, None, None, None
        v, prev = task.node_id, task.prev_estimate
        table.prev = {v: prev}
        table.prev_texts = {v: None if prev is None else format_value(prev)}
        table.entries = {entry[0]: entry for entry in task.neighbor_values}
        table.lines = {
            u: _neighbor_line(u, format_value(x), observed) for u, x, observed in task.neighbor_values
        }
        return table


def build_task(
    v: int,
    obs: Observation,
    prev: Sequence[float] | None,
    g: Graph,
    mode: str = "observed-plus-stale",
    units: str = "",
    table: StepTable | None = None,
) -> NodeTask:
    """Collect the local context for missing node ``v`` at the observation's time step.

    Neighbors observed right now always enter as ``(u, current value, True)``.
    In ``observed-plus-stale`` mode, unobserved neighbors additionally enter
    as ``(u, previous-step estimate, False)`` from ``prev`` (the full estimate
    vector of the last step, or None on a cold start). Triples follow the
    graph's ascending neighbor order. The node's own previous estimate is
    attached whenever ``prev`` exists.

    The triples come from ``table``, the :class:`StepTable` of ``(obs, prev,
    g, mode)``, which a caller building every task of a step makes once and
    passes in; without one, a table is built for this call alone.
    """
    if table is None:
        table = StepTable(obs, prev, g, mode)
    elif table.obs is not obs or table.graph is not g or table.mode != mode:
        raise ValueError("the step table was built for another observation, graph or mode")
    v = g.check_node(v)
    entries = table.entries
    # filter(None, ...) drops the neighbors that offer nothing; a triple is never falsy.
    neighbors = tuple(filter(None, map(entries.__getitem__, g.neighbors(v))))
    return NodeTask(v, table.time_index, table.prev[v], neighbors, units)


def render_prompt(task: NodeTask, template: PromptTemplate, table: StepTable | None = None) -> str:
    """Deterministically instantiate the template for one task.

    The text lists every neighbor value, labelled as observed now or as a
    previous-step estimate, and the node's previous estimate when present; it
    never contains values from any other node or any later time step because
    the task itself cannot hold them. The lines and the previous estimate's
    text come from ``table``, the :class:`StepTable` the task was built from;
    without one, :meth:`StepTable.for_task` makes them from the task.
    """
    if table is None:
        table = StepTable.for_task(task)
    v = task.node_id
    if task.prev_estimate is not None:
        text = table.prev_texts[v] or format_value(task.prev_estimate)
        prev_block = f"Previous estimate for station {v} (time step {task.time_index - 1}): {text}"
    else:
        prev_block = f"No previous estimate is available for station {v}."
    lines = table.lines
    neighbor_block = "\n".join([lines[entry[0]] for entry in task.neighbor_values])

    mapping = {
        "node_id": str(v),
        "time_index": str(task.time_index),
        "units": task.units or "unspecified units",
        "prev_estimate_block": prev_block,
        "neighbor_block": neighbor_block or "(no neighbor values available)",
    }
    try:
        return template.text.format_map(mapping)
    except KeyError as exc:
        raise TemplateError(f"template references unknown placeholder {exc}") from None
    except (IndexError, ValueError) as exc:
        raise TemplateError(f"malformed template: {exc}") from None


FAILURE_NON_NUMERIC = "non-numeric"
FAILURE_NAN = "nan-literal"
FAILURE_EMPTY = "empty"
FAILURE_CONFLICT = "multiple-conflicting"
FAILURE_REASONS = (FAILURE_NON_NUMERIC, FAILURE_NAN, FAILURE_EMPTY, FAILURE_CONFLICT)


@dataclass(frozen=True)
class ParsedPrediction:
    """Outcome of parsing a completion: a finite value or a failure reason."""

    value: float | None = None
    failure: str | None = None

    def __post_init__(self):
        if (self.value is None) == (self.failure is None):
            raise ValueError("exactly one of value and failure must be set")
        if self.failure is not None and self.failure not in FAILURE_REASONS:
            raise ValueError(f"unknown failure reason {self.failure!r}")
        if self.value is not None:
            v = float(self.value)
            if not math.isfinite(v):
                raise ValueError("parsed value must be finite")
            object.__setattr__(self, "value", v)

    @property
    def ok(self) -> bool:
        return self.failure is None


_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_NAN_RE = re.compile(r"\bnan\b", re.IGNORECASE)


def parse_response(text: str | None) -> ParsedPrediction:
    """Extract one decimal number (sign, decimal point, scientific notation allowed).

    Blank input is an ``empty`` failure and a bare NaN token is ``nan-literal``.
    Several occurrences of the same number are fine; genuinely different
    numbers make the reply ambiguous and fail as ``multiple-conflicting``.
    Never raises; failures are returned as values. A reply that is exactly
    one finite number is read directly, with the result a full scan gives.
    """
    if text is not None and _NUMBER_RE.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return ParsedPrediction(value=value)
    return _scan_response(text)


def _scan_response(text: str | None) -> ParsedPrediction:
    """The general reading of a reply: every number token in it, then the failure cascade."""
    if text is None or not text.strip():
        return ParsedPrediction(failure=FAILURE_EMPTY)
    tokens = _NUMBER_RE.findall(text)
    values = [v for v in (float(tok) for tok in tokens) if math.isfinite(v)]
    if not values:
        if _NAN_RE.search(text):
            return ParsedPrediction(failure=FAILURE_NAN)
        return ParsedPrediction(failure=FAILURE_NON_NUMERIC)
    if len(set(values)) > 1:
        return ParsedPrediction(failure=FAILURE_CONFLICT)
    return ParsedPrediction(value=values[0])


def fallback_value(
    v: int,
    history: Sequence[float],
    obs: Observation,
    g: Graph,
) -> float:
    """Substitute value when prediction failed or the task was infeasible.

    ``history`` holds node ``v``'s previous estimates and observations. Fixed
    cascade: their mean; else the mean of the node's currently observed
    neighbors; else the mean of everything observed right now; else 0.0.
    Always returns a finite number, also when a sum overflows.
    """
    v = g.check_node(v)
    values = history
    if not len(values):
        neighbors = np.array(g.neighbors(v), dtype=np.intp)
        values = obs.data[neighbors][obs.present[neighbors]]
    if not len(values):
        values = obs.data[obs.present]
    if not len(values):
        return 0.0
    mean = float(np.mean(values))
    if not math.isfinite(mean):  # the sum overflowed: average the values scaled into [-1, 1]
        scale = float(np.max(np.abs(values)))
        mean = scale * float(np.mean(np.divide(values, scale)))
    return mean
