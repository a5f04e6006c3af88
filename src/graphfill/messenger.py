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

from ._format import format_value, read_text
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

    The body must reference ``{neighbor_block}`` and plain ``{instruction_block}``
    fields. Body and ``instruction`` (a single decimal number, no chat memory, this
    time step only) are compiled once each, the instruction's parts in place of each
    ``{instruction_block}``. Any other field is a placeholder ``render_prompt`` fills,
    with an optional conversion and spec; one that is positional, unknown, uses attribute
    or index access or nests a field, or a body that fails to render, is a :class:`TemplateError`.
    """

    body: str
    instruction = DEFAULT_INSTRUCTION  # a class constant, not a field

    def __post_init__(self):
        try:
            fields = _compile(self.body, _BODY_NAMES)  # a plain field is its index; escaped text is literal
            block = _BODY_NAMES.index("instruction_block")
            if any(part.__class__ is tuple and part[0] == block for part in fields):
                raise TemplateError("template field {instruction_block} takes no conversion or format spec")
            for name in ("neighbor_block", "instruction_block"):
                if _BODY_NAMES.index(name) not in fields:
                    raise TemplateError(f"template body is missing the {{{name}}} placeholder")
            instruction = _compile(self.instruction)  # its parts take the place of each block field
            parts = [piece for part in fields for piece in (instruction if part == block else (part,))]
            object.__setattr__(self, "_parts", tuple(parts))  # what _render joins
            self._render(("0",) * len(_PLACEHOLDERS))
        except TemplateError:
            raise
        except KeyError as exc:
            raise TemplateError(f"template references unknown placeholder {exc}") from None
        except ValueError as exc:
            raise TemplateError(f"malformed template: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "PromptTemplate":
        return cls(body=read_text(Path(path), TemplateError))

    @classmethod
    def default(cls) -> "PromptTemplate":
        """The built-in template file, read as :meth:`load` reads one: UTF-8, whatever the locale."""
        return cls(body=read_text(resources.files("graphfill") / "templates" / "default_prompt.txt", TemplateError))

    def _render(self, values: Sequence[str]) -> str:
        """The compiled body and instruction, each field filled from ``values``."""
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


class StepTable:
    """The context every task of one time step draws on, gathered once.

    At a step each node has at most one value to offer its neighbors: its
    reading when observed, else, in ``observed-plus-stale`` mode, its
    estimate from the previous step. For each node ``u``:

    - ``entries[u]`` is the ``(u, value, observed)`` triple that a
      neighboring node's task lists, or None when ``u`` offers nothing;
    - ``lines[u]`` is that triple's prompt line (formatted nowhere else), or None;
    - ``prev[u]`` is ``u``'s previous estimate, or None on a cold start;
    - ``prev_texts[u]`` is the decimal text of ``prev[u]`` for a hidden
      node, the same string its stale line shows, and None otherwise.

    Each value is formatted once per step, however many tasks show it. The
    table covers every node of ``graph``, in lists indexed by node id: with
    ``time_index``, all that :func:`build_task` and :func:`render_prompt` read.
    A plain record, checked by its maker as ``NodeTask`` is: ``MessengerPredictor``
    checks the mode, and ``prev`` is a row of ``EstimateState``, which refuses non-finite values.
    """

    __slots__ = ("time_index", "graph", "entries", "lines", "prev", "prev_texts")

    def __init__(self, obs: Observation, prev: np.ndarray | None, g: Graph,
                 mode: str = "observed-plus-stale"):
        n = g.num_nodes
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
            self.lines[u] = f"- station {u}: {text} ({_NEIGHBOR_LABELS[observed]})"


def build_task(v: int, table: StepTable, units: str = "") -> NodeTask:
    """Collect the local context for missing node ``v`` from its step's :class:`StepTable`.

    Neighbors observed now enter as ``(u, current value, True)``; in
    ``observed-plus-stale`` mode unobserved ones also enter as ``(u,
    previous-step estimate, False)``, in the graph's ascending neighbor order.
    The node's own previous estimate is attached whenever the table has one.
    ``g.neighbors`` checks ``v``. The :class:`Graph` refuses self-loops and
    repeated edges, the observation and the estimates refuse non-finite values,
    and the table's ``.tolist()`` values are plain ``float`` and ``bool``, so
    every other field of the :class:`NodeTask` is already right.
    """
    g = table.graph
    v = int(v)
    entries = table.entries
    # filter(None, ...) drops the neighbors that offer nothing; a triple is never falsy.
    neighbors = tuple(filter(None, map(entries.__getitem__, g.neighbors(v))))
    return NodeTask(v, table.time_index, table.prev[v], neighbors, units)


def render_prompt(task: NodeTask, template: PromptTemplate, table: StepTable) -> str:
    """Deterministically instantiate the template for one task.

    The text lists every neighbor value, labelled as observed now or as a
    previous-step estimate, and the node's previous estimate when present; it
    never contains values from any other node or any later time step because
    the task itself cannot hold them. The lines and the previous estimate's text
    are read from ``table``, the required :class:`StepTable` the task was built
    from; an observed node's previous estimate, which no line shows, is formatted
    from ``table.prev``. The template was checked when built; no value is empty.
    """
    v = task.node_id
    if task.prev_estimate is not None:
        text = table.prev_texts[v] or format_value(table.prev[v])
        prev_block = f"Previous estimate for station {v} (time step {task.time_index - 1}): {text}"
    else:
        prev_block = f"No previous estimate is available for station {v}."
    neighbor_block = "\n".join([table.lines[entry[0]] for entry in task.neighbor_values])
    values = (str(v), str(task.time_index), task.units or "unspecified units", prev_block,
              neighbor_block or "(no neighbor values available)")
    return template._render(values)


FAILURE_NON_NUMERIC = "non-numeric"
FAILURE_NAN = "nan-literal"
FAILURE_EMPTY = "empty"
FAILURE_CONFLICT = "multiple-conflicting"


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
