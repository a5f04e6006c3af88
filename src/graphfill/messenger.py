"""Per-node prediction tasks: local context assembly, prompt rendering, reply parsing, fallback."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from ._format import format_value
from .graphs import Graph
from .signals import Observation

__all__ = [
    "NodeTask",
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
        object.__setattr__(self, "node_id", int(self.node_id))
        object.__setattr__(self, "time_index", int(self.time_index))
        if self.prev_estimate is not None:
            prev = float(self.prev_estimate)
            if not math.isfinite(prev):
                raise ValueError("previous estimate is non-finite")
            object.__setattr__(self, "prev_estimate", prev)
        entries = tuple((int(u), float(x), bool(observed)) for u, x, observed in self.neighbor_values)
        seen = set()
        for u, x, _ in entries:
            if u == self.node_id:
                raise ValueError(f"task for node {self.node_id} lists itself as a neighbor")
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

    @property
    def sha256(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.body.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.instruction.encode("utf-8"))
        return digest.hexdigest()


_NEIGHBOR_LABELS = {True: "observed at this time step", False: "estimate from the previous time step"}


def build_task(
    v: int,
    obs: Observation,
    prev: Sequence[float] | None,
    g: Graph,
    mode: str = "observed-plus-stale",
    units: str = "",
) -> NodeTask:
    """Collect the local context for missing node ``v`` at the observation's time step.

    Neighbors observed right now always enter as ``(u, current value, True)``.
    In ``observed-plus-stale`` mode, unobserved neighbors additionally enter
    as ``(u, previous-step estimate, False)`` from ``prev`` (the full estimate
    vector of the last step, or None on a cold start). Triples follow the
    graph's ascending neighbor order. The node's own previous estimate is
    attached whenever ``prev`` exists.
    """
    if mode not in NEIGHBOR_MODES:
        raise ValueError(f"mode must be one of {NEIGHBOR_MODES}, got {mode!r}")
    v = g.check_node(v)
    if obs.num_nodes != g.num_nodes:
        raise ValueError(f"observation covers {obs.num_nodes} nodes, graph has {g.num_nodes}")
    prev_vec = None if prev is None else np.asarray(prev, dtype=float)
    if prev_vec is not None and prev_vec.shape != (g.num_nodes,):
        raise ValueError(f"previous estimates have shape {prev_vec.shape}, expected ({g.num_nodes},)")

    stale = mode == "observed-plus-stale" and prev_vec is not None
    entries = []
    for u in g.neighbors(v):
        if obs.present[u]:
            entries.append((u, obs.data[u], True))
        elif stale:
            entries.append((u, prev_vec[u], False))
    prev_estimate = None if prev_vec is None else float(prev_vec[v])
    return NodeTask(
        node_id=v,
        time_index=obs.time_index,
        prev_estimate=prev_estimate,
        neighbor_values=tuple(entries),
        units=units,
    )


def render_prompt(task: NodeTask, template: PromptTemplate) -> str:
    """Deterministically instantiate the template for one task.

    The text lists every neighbor value, labelled as observed now or as a
    previous-step estimate, and the node's previous estimate when present; it
    never contains values from any other node or any later time step because
    the task itself cannot hold them.
    """
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
            f"- station {u}: {format_value(x)} ({_NEIGHBOR_LABELS[observed]})"
            for u, x, observed in task.neighbor_values
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
    text = template.body.replace("{instruction_block}", template.instruction)
    try:
        return text.format_map(mapping)
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
    Never raises; failures are returned as values.
    """
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
    Always returns a finite number.
    """
    v = g.check_node(v)
    if len(history):
        return float(np.mean(history))
    neighbors = np.array(g.neighbors(v), dtype=np.intp)
    neighbor_now = obs.data[neighbors][obs.present[neighbors]]
    if neighbor_now.size:
        return float(np.mean(neighbor_now))
    anything = obs.data[obs.present]
    if anything.size:
        return float(np.mean(anything))
    return 0.0
