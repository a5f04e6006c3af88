"""Per-node prediction tasks: local context assembly, prompt rendering, reply parsing, fallback."""

from __future__ import annotations

import hashlib
import math
import re
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

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


class NodeTask(NamedTuple):
    """Everything a predictor may see for one missing node at one time step.

    ``neighbor_values`` holds one ``(node_id, value, observed)`` triple per
    one-hop neighbor that has a value: ``observed`` is True for a reading at
    this time step and False for that neighbor's estimate from the previous
    step. A task with no previous estimate and no neighbor values is
    infeasible; the caller falls back instead of predicting. A plain record,
    checked where its values are made: :func:`build_task` reads them from a
    graph and a :class:`StepTable`, which make neighbor ids distinct,
    ascending and never the node's own (so never its current ground truth),
    and every value a finite ``float``.
    """

    node_id: int
    time_index: int
    prev_estimate: float | None
    neighbor_values: tuple[tuple[int, float, bool], ...]
    units: str = ""

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

# The names render_prompt fills, in the order it lists their values; a body also names the instruction.
_PLACEHOLDERS = ("node_id", "time_index", "units", "prev_estimate_block", "neighbor_block")
_BODY_NAMES = (*_PLACEHOLDERS, "instruction_block")
_CONVERSIONS = {None: str, "r": repr, "s": str, "a": ascii}


def _compile(text: str, names: tuple[str, ...] = _PLACEHOLDERS) -> tuple:
    """``text`` as literal strings and fields, each a ``names`` index or ``(index, conversion, spec)``."""
    parts = []
    for literal, name, spec, conversion in string.Formatter().parse(text):
        if literal:
            parts.append(literal)
        if name is None:
            continue
        first = re.match(r"[^.[]*", name).group()
        if not first or first.isdecimal():
            raise ValueError("Format string contains positional fields")
        if first not in names:
            raise KeyError(first)
        if name != first:
            raise ValueError(f"field {{{name}}} uses attribute or index access")
        if conversion not in _CONVERSIONS:
            raise ValueError(f"Unknown conversion specifier {conversion}")
        if "{" in spec:
            raise ValueError("a replacement field nested in a format spec")
        index = names.index(name)
        parts.append((index, _CONVERSIONS[conversion], spec) if conversion or spec else index)
    return tuple(parts)


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt skeleton with named placeholders, checked and compiled once, when it is built.

    The body must reference ``{neighbor_block}`` and ``{instruction_block}``;
    the latter is replaced by ``instruction``, which demands a single decimal
    number, no chat memory and the current time step only. Any other field is a
    placeholder ``render_prompt`` fills, with an optional conversion and spec; one
    that is positional, unknown, uses attribute or index access or nests a field,
    or a ``text`` that fails to render, raises :class:`TemplateError`.
    """

    body: str
    instruction = DEFAULT_INSTRUCTION  # a class constant, not a field

    def __post_init__(self):
        try:
            fields = _compile(self.body, _BODY_NAMES)  # a plain field is its index; escaped text is literal
            for name in ("neighbor_block", "instruction_block"):
                if _BODY_NAMES.index(name) not in fields:
                    raise TemplateError(f"template body is missing the {{{name}}} placeholder")
            text = self.body.replace("{instruction_block}", self.instruction)
            object.__setattr__(self, "_parts", _compile(text))  # what _render joins
            self._render(("0",) * len(_PLACEHOLDERS))
        except TemplateError:
            raise
        except KeyError as exc:
            raise TemplateError(f"template references unknown placeholder {exc}") from None
        except ValueError as exc:
            raise TemplateError(f"malformed template: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "PromptTemplate":
        return cls(body=Path(path).read_text(encoding="utf-8-sig"))

    @classmethod
    def default(cls) -> "PromptTemplate":
        body = resources.files("graphfill").joinpath("templates/default_prompt.txt").read_text()
        return cls(body=body)

    def _render(self, values: Sequence[str]) -> str:
        """The body, with the instruction spliced in and each field filled from ``values``."""
        return "".join([part if part.__class__ is str else values[part] if part.__class__ is int
                        else format(part[1](values[part[0]]), part[2]) for part in self._parts])

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
    - ``lines[u]`` is that triple's prompt line, or None;
    - ``prev[u]`` is ``u``'s previous estimate, or None on a cold start;
    - ``prev_texts[u]`` is the decimal text of ``prev[u]`` for a hidden
      node, the same string its stale line shows, and None otherwise.

    Each value is checked and formatted once per step, however many tasks show
    it: an observation is finite, and a non-finite previous estimate is refused
    here, naming its node. The table covers every node of ``graph``, in lists
    indexed by node id, and with ``time_index`` it is all that :func:`build_task` reads.
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
            if np.count_nonzero(np.isfinite(prev)) != n:
                raise ValueError(f"previous estimate for node {int(np.argmin(np.isfinite(prev)))} is non-finite")
        self.time_index, self.graph = obs.time_index, g
        self.prev = [None] * n if prev is None else prev.tolist()
        self.entries, self.lines, self.prev_texts = [None] * n, [None] * n, [None] * n
        stale = mode == "observed-plus-stale"
        for u, (x, observed, before) in enumerate(zip(obs.data.tolist(), obs.present.tolist(), self.prev)):
            if not observed:
                if before is None:
                    continue
                x = before
                text = self.prev_texts[u] = format_value(x)
                if not stale:
                    continue
            else:
                text = format_value(x)
            self.entries[u] = (u, x, observed)
            self.lines[u] = _neighbor_line(u, text, observed)


def build_task(v: int, table: StepTable, units: str = "") -> NodeTask:
    """Collect the local context for missing node ``v`` from its step's :class:`StepTable`.

    Neighbors observed now enter as ``(u, current value, True)``; in
    ``observed-plus-stale`` mode unobserved ones also enter as ``(u,
    previous-step estimate, False)``, in the graph's ascending neighbor order.
    The node's own previous estimate is attached whenever the table has one.
    Only ``v`` is checked here. The :class:`Graph` refuses self-loops and
    repeated edges, the observation and the table refuse non-finite values,
    and the table's ``.tolist()`` values are plain ``float`` and ``bool``, so
    every other field of the :class:`NodeTask` is already right.
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
    return template._render(values)


FAILURE_NON_NUMERIC = "non-numeric"
FAILURE_NAN = "nan-literal"
FAILURE_EMPTY = "empty"
FAILURE_CONFLICT = "multiple-conflicting"
FAILURE_REASONS = (FAILURE_NON_NUMERIC, FAILURE_NAN, FAILURE_EMPTY, FAILURE_CONFLICT)


class ParsedPrediction(NamedTuple):
    """Outcome of parsing a completion: a finite value or a failure reason.

    A plain record; :func:`parse_response`, its only maker, sets exactly one.
    """

    value: float | None = None
    failure: str | None = None

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
            return ParsedPrediction(value)
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow, or inf - inf, is caught below
        mean = float(np.mean(values))
    if not math.isfinite(mean):  # the sum overflowed: average the values scaled into [-1, 1]
        scale = float(np.max(np.abs(values)))
        mean = scale * float(np.mean(np.divide(values, scale)))
    return mean
