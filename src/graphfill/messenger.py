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
# The names render_prompt fills, in the order it lists their values.
_PLACEHOLDERS = ("node_id", "time_index", "units", "prev_estimate_block", "neighbor_block")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt skeleton with named placeholders, checked once, when it is built.

    The body must reference ``{neighbor_block}`` and ``{instruction_block}``;
    the latter is replaced by ``instruction``, which demands a single decimal
    number, no chat memory and the current time step only. A ``text`` that does
    not render with ``"0"`` for each placeholder ``render_prompt`` fills raises
    :class:`TemplateError`.
    """

    body: str
    instruction = DEFAULT_INSTRUCTION  # a class constant, not a field

    def __post_init__(self):
        for placeholder in _REQUIRED_BODY_PLACEHOLDERS:
            if placeholder not in self.body:
                raise TemplateError(f"template body is missing the {placeholder} placeholder")
        try:
            self.text.format_map(dict.fromkeys(_PLACEHOLDERS, "0"))
        except KeyError as exc:
            raise TemplateError(f"template references unknown placeholder {exc}") from None
        except (IndexError, ValueError, AttributeError, TypeError) as exc:
            raise TemplateError(f"malformed template: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "PromptTemplate":
        return cls(body=Path(path).read_text())

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

    Each value is formatted once per step, however many tasks show it. The
    table covers every node of ``graph``, in lists indexed by node id, and
    with ``time_index`` it is all that :func:`build_task` reads.
    """

    __slots__ = ("time_index", "graph", "entries", "lines", "prev", "prev_texts")

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
        self.time_index, self.graph = obs.time_index, g
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


def build_task(v: int, table: StepTable, units: str = "") -> NodeTask:
    """Collect the local context for missing node ``v`` from its step's table.

    ``table`` is the :class:`StepTable` of the step's observation, the
    previous estimates, the graph and the neighbor mode; a caller building
    every task of a step makes it once. Neighbors observed right now always
    enter as ``(u, current value, True)``. In ``observed-plus-stale`` mode,
    unobserved neighbors additionally enter as ``(u, previous-step estimate,
    False)``. Triples follow the graph's ascending neighbor order. The node's
    own previous estimate is attached whenever the table has one.
    """
    g = table.graph
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
    without one, they are formatted from the task, to the same text. The
    template was checked when it was built, and every value here is non-empty.
    """
    v = task.node_id
    if task.prev_estimate is not None:
        text = (table and table.prev_texts[v]) or format_value(task.prev_estimate)
        prev_block = f"Previous estimate for station {v} (time step {task.time_index - 1}): {text}"
    else:
        prev_block = f"No previous estimate is available for station {v}."
    if table is None:
        lines = [_neighbor_line(u, format_value(x), observed) for u, x, observed in task.neighbor_values]
    else:
        lines = [table.lines[entry[0]] for entry in task.neighbor_values]
    neighbor_block = "\n".join(lines)

    values = (str(v), str(task.time_index), task.units or "unspecified units", prev_block,
              neighbor_block or "(no neighbor values available)")
    return template.text.format_map(dict(zip(_PLACEHOLDERS, values)))


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
