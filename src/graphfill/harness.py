"""Online reconstruction loop: drive any predictor over a masked signal stream.

One run walks the time axis in order. At each step the missing nodes are
predicted from the frozen previous state plus the current observation, the
observed nodes are clamped to their observed values, and the assembled
estimate column is appended to the running state. Ground truth is only ever
read through a guard that forbids access to future columns.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from ._format import read_text
from .backends import Backend, BackendError, CompletionRequest
from .filters import FILTER_KINDS, FilterConfig, filter_step, graph_spectrum
from .graphs import Graph, graph_sha256
from .messenger import (
    NEIGHBOR_MODES,
    PromptTemplate,
    StepTable,
    build_task,
    fallback_value,
    parse_response,
    render_prompt,
)
from .signals import (
    MaskSpec,
    Observation,
    SamplingMask,
    SignalSeries,
    observation_from_column,
    signal_sha256,
)

__all__ = [
    "CausalityError",
    "CausalSignalView",
    "EstimateState",
    "Predictor",
    "ZeroPredictor",
    "FilterPredictor",
    "MessengerPredictor",
    "MseReport",
    "evaluate_mse",
    "RunResult",
    "run_online",
    "compare",
    "ComparisonTable",
    "mse_over_time",
]


class CausalityError(RuntimeError):
    """A predictor or the loop tried to read ground truth beyond the current step."""


class CausalSignalView:
    """Access-instrumented window onto the ground-truth series: the one reader of a truth column.

    ``column(t)``, a read-only view of ``series.values``, is legal for ``t`` in ``[0, T)`` up to
    the limit set by ``advance``; every access is logged as ``(limit_at_access, requested_t)``
    so a finished run can prove it never peeked ahead.
    """

    def __init__(self, series: SignalSeries):
        self._values = series.values
        self._limit = -1
        self.access_log: list[tuple[int, int]] = []

    def advance(self, t: int) -> None:
        self._limit = int(t)

    def column(self, t: int) -> np.ndarray:
        """Column ``t`` as a read-only view; a negative index is refused, not read from the end."""
        t = int(t)
        self.access_log.append((self._limit, t))
        if t > self._limit:
            raise CausalityError(f"read of time column {t} while the clock is at {self._limit}")
        if not 0 <= t < self._values.shape[1]:
            raise ValueError(f"time index {t} outside [0, {self._values.shape[1]})")
        return self._values[:, t]


class EstimateState:
    """Reconstruction carried across steps: a T x N array filled row by row.

    Rows are time steps; a node's history is a column. ``estimates`` is the
    latest assembled row (None before the first step); ``history(v)`` holds
    every prior value for node v, which for observed nodes means their
    observed values. ``matrix`` gives the usual N x T layout.
    """

    def __init__(self, num_nodes: int, num_steps: int):
        self._values = np.zeros((int(num_steps), int(num_nodes)))
        self._view = self._values.view()  # what predictors get to read
        self._view.setflags(write=False)
        self.steps_completed = 0

    @property
    def estimates(self) -> np.ndarray | None:
        t = self.steps_completed
        return None if t == 0 else self._view[t - 1]

    def history(self, v: int) -> np.ndarray:
        return self._view[: self.steps_completed, v]

    def append(self, data: np.ndarray, missing: np.ndarray, proposals: np.ndarray) -> None:
        """Store the next step's row in place: ``data`` with ``proposals`` at the ``missing`` nodes.

        ``data`` (an observation's) and ``missing`` (its run's mask index) were
        checked by their makers. Only the proposals are new, so only they are
        checked, for one finite value per missing node; a step must be left.
        """
        proposals = np.asarray(proposals, dtype=float)
        if proposals.shape != missing.shape:
            raise ValueError(f"proposals {proposals.shape} must hold one value per missing node {missing.shape}")
        if np.count_nonzero(np.isfinite(proposals)) != proposals.size:
            raise ValueError("assembled estimate contains non-finite entries")
        t = self.steps_completed
        if t == self._values.shape[0]:
            raise ValueError(f"all {t} time steps are already filled")
        row = self._values[t]
        row[:] = data
        row[missing] = proposals
        self.steps_completed = t + 1

    def matrix(self) -> np.ndarray:
        """All appended steps as a C-contiguous N x T array."""
        return self._values[: self.steps_completed].T.copy()


class Predictor:
    """Per-step proposal source for the missing nodes.

    A configured predictor is shared by every run and never written by one:
    ``reset``, called once per run, returns the run, a shallow copy holding
    that run's graph, mask, ``stats`` and ``prompt_log``. A subclass sets its
    own run state on the value that ``super().reset(...)`` returns. The run's
    ``predict_missing`` must return one value per missing node, in ascending
    node order, using only the current observation and the state built so far.
    """

    name = "predictor"

    def reset(self, g: Graph, mask: SamplingMask, run_index: int = 0) -> Predictor:
        run = copy.copy(self)
        run._g, run._mask, run._run_index = g, mask, run_index
        run.stats, run.prompt_log = {}, []
        return run

    def predict_missing(self, t: int, obs: Observation, state: EstimateState) -> np.ndarray:
        raise NotImplementedError

    def config_snapshot(self) -> dict:
        """The run's configuration, as its result records it."""
        return {}


class ZeroPredictor(Predictor):
    """Predicts 0 for every missing node; the do-nothing baseline."""

    name = "zero"

    def predict_missing(self, t, obs, state):
        return np.zeros(self._mask.num_missing)


class FilterPredictor(Predictor):
    """Adapts the online graph filters to the harness loop.

    The filter keeps its own unclamped recursion state, starting from zero;
    the harness separately clamps observed nodes in the assembled estimate.
    """

    def __init__(self, kind: str, cfg: FilterConfig | None = None):
        if kind not in FILTER_KINDS:
            raise ValueError(f"filter kind must be one of {FILTER_KINDS}, got {kind!r}")
        self.kind = kind
        self.name = kind
        self.cfg = cfg or FilterConfig()

    def reset(self, g, mask, run_index=0):
        run = super().reset(g, mask, run_index)
        # A C-contiguous copy, not a strided view of the N x N eigenvectors:
        # BLAS sums a view's products in another order, changing the last bits.
        run._basis = np.array(graph_spectrum(g)[1][:, : self.cfg.resolve_bandwidth(g.num_nodes)])
        run._estimate = np.zeros(g.num_nodes)
        return run

    def predict_missing(self, t, obs, state):
        self._estimate = filter_step(self.kind, self._estimate, obs, self._basis, self.cfg.mu)
        return self._estimate[self._mask.missing]

    def config_snapshot(self):
        return {
            "kind": self.kind,
            "mu": float(self.cfg.mu),
            "bandwidth": self._basis.shape[1],
            "init": "zeros",
        }


class MessengerPredictor(Predictor):
    """Per-node completion pipeline: build task, render prompt, complete, parse.

    Each step first gathers one :class:`~graphfill.messenger.StepTable`
    (every node's value, its text and its prompt line), the only step input
    of ``build_task`` and ``render_prompt``, which run once per hidden node.
    Every request carries the task it was rendered from. A step's requests go
    through ``backend.complete_each``, or with ``batch=True`` as one batch
    through ``backend.complete_batch``, whose count guard fails every item
    when the number of replies is wrong. Either gives each request's reply
    text or the ``BackendError`` that failed it; a backend that gives another
    number of outcomes than requests stops the run. A remote backend posts one
    request at a time, and a request waiting out its backoff lets the step's
    next requests go. An infeasible task (no previous estimate, no neighbor
    value) is never sent; it, a backend error and an unparseable or NaN reply
    are each replaced through the total fallback cascade and counted. With
    ``keep_prompts=True`` a run keeps its prompts in ``prompt_log``, so it can
    be audited for leaks. The neighbor mode, temperature and ``max_tokens``
    are checked here, once, before any run; requests and step tables copy
    them, and a task's values were checked where they were made.
    """

    def __init__(
        self,
        backend: Backend,
        template: PromptTemplate | None = None,
        neighbor_mode: str = "observed-plus-stale",
        units: str = "",
        model: str = "gpt-3.5-turbo",
        temperature: float = 0.0,
        max_tokens: int = 16,
        batch: bool = False,
        name: str = "llm",
        keep_prompts: bool = False,
    ):
        if neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {neighbor_mode!r}")
        self.backend = backend
        self.template = template or PromptTemplate.default()
        self.neighbor_mode = neighbor_mode
        self.units = units
        self.model = model
        self.temperature = float(temperature)
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {temperature}")
        if not isinstance(max_tokens, numbers.Integral):
            raise ValueError(f"max_tokens must be an integer, got {max_tokens!r}")
        self.max_tokens = int(max_tokens)
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        self.batch = bool(batch)
        self.name = name
        self.keep_prompts = bool(keep_prompts)

    def reset(self, g, mask, run_index=0):
        run = super().reset(g, mask, run_index)
        run._missing = mask.missing.tolist()
        run.stats = dict.fromkeys(("fallback_uses", "parse_failures", "backend_failures", "infeasible_tasks"), 0)
        return run

    def _fallback(self, v, obs, state, reason_key):
        self.stats[reason_key] += 1
        self.stats["fallback_uses"] += 1
        return fallback_value(v, state.history(v), obs, self._g)

    def predict_missing(self, t, obs, state):
        table = StepTable(obs, state.estimates, self._g, self.neighbor_mode)
        proposals = np.empty(len(self._missing))
        pending: list[tuple[int, CompletionRequest]] = []
        for slot, v in enumerate(self._missing):
            task = build_task(v, table, self.units)
            if not task.is_feasible:
                # Nothing to put in a prompt; skip the backend entirely so the
                # fallback tally stays an exact sum of its three causes.
                proposals[slot] = self._fallback(v, obs, state, "infeasible_tasks")
                continue
            prompt = render_prompt(task, self.template, table)
            if self.keep_prompts:
                self.prompt_log.append({"t": t, "node": v, "prompt": prompt})
            request_id = f"run{self._run_index}-t{t}-node{v}"
            request = CompletionRequest(prompt, self.model, self.temperature, self.max_tokens, request_id, task)
            pending.append((slot, request))

        requests = [request for _, request in pending]
        outcomes = (self.backend.complete_batch if self.batch else self.backend.complete_each)(requests)
        if len(outcomes) != len(requests):
            raise ValueError(f"{self.backend.kind} backend: {len(outcomes)} outcomes for {len(requests)} requests")
        for (slot, request), outcome in zip(pending, outcomes):
            v = request.task.node_id
            if isinstance(outcome, BackendError):
                proposals[slot] = self._fallback(v, obs, state, "backend_failures")
                continue
            parsed = parse_response(outcome)
            if parsed.ok:
                proposals[slot] = parsed.value
            else:
                proposals[slot] = self._fallback(v, obs, state, "parse_failures")
        return proposals

    def config_snapshot(self):
        snapshot = {
            "backend": self.backend.kind,
            "neighbor_mode": self.neighbor_mode,
            "units": self.units,
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "batch": self.batch,
            "template_sha256": self.template.sha256,
        }
        alpha = getattr(self.backend, "alpha", None)
        if alpha is not None:
            snapshot["mock_alpha"] = alpha
        return snapshot


class MseReport(NamedTuple):
    """Mean squared error over all nodes, and over the missing nodes only.

    ``per_run`` holds each run's own ``(all_nodes, missing_only)`` pair.
    """

    all_nodes: float
    missing_only: float | None
    per_run: tuple[tuple[float, float | None], ...]


def evaluate_mse(
    estimates: Sequence[np.ndarray],
    truth: SignalSeries,
    masks: Sequence[SamplingMask] | None = None,
) -> MseReport:
    """Average squared error over runs, nodes, and time.

    ``estimates`` holds one N x T matrix per run. The all-nodes figure is
    ``sum of squared errors / (R * N * T)``; the missing-only figure averages
    each run's error over its own mask's missing rows (None without masks).
    Each run's differences are squared once, in one pass that sums them all
    and then that run's missing rows, and ``per_run`` reports the same two
    figures for every run on its own.
    """
    mats = [np.asarray(e, dtype=float) for e in estimates]
    if not mats:
        raise ValueError("need at least one run of estimates")
    shape = (truth.num_nodes, truth.num_steps)
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"run {i} has shape {m.shape}, truth has {shape}")
    runs = len(mats)
    mask_list = [None] * runs if masks is None else list(masks)
    if len(mask_list) != runs:
        raise ValueError(f"{len(mask_list)} masks for {runs} runs")
    sums, per_run = [], []
    for m, mask in zip(mats, mask_list):
        squares = (truth.values - m) ** 2
        sums.append(float(np.sum(squares)))
        if mask is not None:
            if mask.num_nodes != shape[0]:
                raise ValueError(f"mask covers {mask.num_nodes} nodes, truth has {shape[0]}")
            rows = mask.missing  # squares[rows, :]: the elements, and layout, of (truth[rows] - m[rows]) ** 2
            per_run.append(float(np.sum(squares[rows, :])) / (len(rows) * shape[1]) if len(rows) else 0.0)
    all_nodes = sum(sums) / (runs * shape[0] * shape[1])
    per_run_all = [total / (shape[0] * shape[1]) for total in sums]
    if masks is None:
        return MseReport(all_nodes, None, tuple((a, None) for a in per_run_all))
    return MseReport(all_nodes, float(np.mean(per_run)), tuple(zip(per_run_all, per_run)))


@dataclass(eq=False)  # holds arrays: equality is identity
class RunResult:
    """Everything one experiment produced, repeatable from the config snapshot.

    The canonical JSON document (``to_json`` and ``save``), written only by
    :meth:`_write_json`, deliberately excludes volatile data (wall clock, access
    logs, prompt logs) so identical seeded runs serialize byte-identically;
    the excluded pieces stay available on the in-memory object. Each estimate
    is formatted once: both writers read each run's N×T ``repr`` text from
    :meth:`_estimate_cells`, which copies the truth text wherever the bits
    agree and keeps only the other cells' texts between calls.
    """

    name: str
    config: dict
    context: dict
    estimates: list[np.ndarray]
    masks: list[SamplingMask]
    per_run_mse: list[dict]
    mse_all: float
    mse_missing: float
    fallback_uses: int
    per_run_stats: list[dict]
    wall_clock_s: float = 0.0
    access_logs: list = field(default_factory=list, repr=False)
    prompt_logs: list = field(default_factory=list, repr=False)
    truth: SignalSeries | None = field(default=None, repr=False)
    _truth_text: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _run_text: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def runs(self) -> int:
        return len(self.estimates)

    def _truth_cells(self) -> tuple | None:
        """``(values, text)``: the truth and its ``repr`` texts as N×T objects, built once per truth."""
        truth = self.truth
        if truth is not None and (self._truth_text is None or self._truth_text[0] is not truth):
            text = list(map(repr, truth.values.ravel().tolist()))
            self._truth_text = (truth, np.array(text, dtype=object).reshape(truth.values.shape))
        return None if truth is None else (truth.values, self._truth_text[1])

    def _estimate_cells(self, r: int) -> np.ndarray:
        """Run ``r``'s estimates, of the truth's shape, as N×T ``repr`` texts: the truth text where bits agree.

        The other cells' texts are kept, newline-joined (no ``repr`` holds one),
        under a digest of those cells' bytes: a cell's text depends only on its
        bits, so an estimate edited in place or a new truth is formatted anew.
        """
        values, text = self._truth_cells()
        mat = np.asarray(self.estimates[r], dtype=np.float64)
        differ = mat.view(np.int64) != values.view(np.int64)  # bits, not ==: -0.0 against 0.0 stays -0.0
        bits = mat[differ]
        key = hashlib.sha256(bits.tobytes()).digest()
        memo = self._run_text.get(r)
        if memo is not None and memo[0] == key:
            cells = memo[1].split("\n") if memo[1] else []
        else:
            cells = list(map(repr, bits.tolist()))
            self._run_text[r] = (key, "\n".join(cells))
        out = text.copy()
        out[differ] = cells
        return out

    def _write_json(self, fh: TextIO) -> None:
        """Write ``json.dumps(document, sort_keys=True, indent=2)`` and a newline, streaming the estimate rows.

        Every other byte is ``json.dumps``'s own text, indented to its depth
        (json escapes every line break inside a string, so each one is layout).
        ``"runs"`` sorts last among the document's keys and ``"estimates"``
        first among a run's, so each run's estimates go between the text before
        them and the rest of the run. A finite float64 estimate of the truth's
        shape is written one row at a time from :meth:`_estimate_cells` (json's
        float text is ``repr``), so one row's text is alive at a time; any
        other is ``json.dumps`` of its ``tolist()``.
        """
        head = {"name": self.name, "config": self.config, "context": self.context, "runs": [],
                "mse_all": self.mse_all, "mse_missing": self.mse_missing, "fallback_uses": self.fallback_uses}
        fh.write(json.dumps(head, sort_keys=True, indent=2)[:-4])  # all but the runs' "[]\n}"
        for r, (mask, mse, stats) in enumerate(zip(self.masks, self.per_run_mse, self.per_run_stats)):
            fh.write(("[" if r == 0 else ",") + '\n    {\n      "estimates": ')
            mat = np.asarray(self.estimates[r])
            if (self.truth is not None and mat.dtype == np.float64 and mat.shape == self.truth.values.shape
                    and np.isfinite(mat).all()):
                for i, cells in enumerate(self._estimate_cells(r).tolist()):
                    fh.write(("[" if i == 0 else ",") + "\n        [\n          " + ",\n          ".join(cells)
                             + "\n        ]")
                fh.write("\n      ]")
            else:
                fh.write(json.dumps(mat.tolist(), indent=2).replace("\n", "\n      "))
            rest = {"mask_observed": [1 if o else 0 for o in mask.observed], "mse": mse, "stats": stats}
            fh.write("," + json.dumps(rest, sort_keys=True, indent=2)[1:].replace("\n", "\n    "))
        fh.write(("\n  ]" if self.masks else "[]") + "\n}\n")

    def to_json(self) -> str:
        buf = io.StringIO()
        self._write_json(buf)
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            self._write_json(fh)

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        """The result :meth:`save` wrote; bad JSON or a missing or mistyped field is a ValueError naming the file."""
        text = read_text(Path(path))
        try:
            payload = json.loads(text)
            for key, kind in {"name": str, "config": dict, "context": dict, "runs": list}.items():
                if not isinstance(payload[key], kind):
                    raise TypeError(f"field {key!r} is not a {kind.__name__}")
            runs = payload["runs"]
            return cls(
                name=payload["name"],
                config=payload["config"],
                context=payload["context"],
                estimates=[np.array(run["estimates"], dtype=float) for run in runs],
                masks=[SamplingMask(np.array(run["mask_observed"], dtype=bool)) for run in runs],
                per_run_mse=[run["mse"] for run in runs],
                mse_all=float(payload["mse_all"]),
                mse_missing=float(payload["mse_missing"]),
                fallback_uses=int(payload["fallback_uses"]),
                per_run_stats=[run["stats"] for run in runs],
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            detail = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"{path}: not a saved result: {detail}") from None

    def write_per_step_csv(self, path: str | Path) -> None:
        """Long-form CSV with one row per (run, t, node): ``truth`` and estimate.

        Lines end in CRLF, as ``csv.writer`` ends them; no field ever needs
        quoting, so each step's rows are one block of six pieces a row, whose
        run-and-step, truth and estimate texts (:meth:`_estimate_cells`) are
        filled per step by slice assignment.
        """
        truth = self.truth
        if truth is None:
            raise ValueError("ground truth is needed to write the per-step CSV")
        for r, est in enumerate(self.estimates):
            if np.shape(est) != truth.values.shape:
                raise ValueError(f"run {r} has shape {np.shape(est)}, truth has {truth.values.shape}")
        n = truth.num_nodes
        pieces = [","] * (6 * n)
        pieces[1::6] = [f"{node}," for node in range(n)]
        pieces[5::6] = ["\r\n"] * n
        truth_columns = self._truth_cells()[1].T.tolist()
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            fh.write("run,t,node,truth,estimate\r\n")
            for r in range(self.runs):
                for t, (truth_cells, cells) in enumerate(zip(truth_columns, self._estimate_cells(r).T.tolist())):
                    pieces[0::6] = [f"{r},{t},"] * n
                    pieces[2::6] = truth_cells
                    pieces[4::6] = cells
                    fh.write("".join(pieces))


def run_online(
    predictor: Predictor,
    g: Graph,
    truth: SignalSeries,
    mask: SamplingMask | MaskSpec,
    runs: int = 1,
    name: str | None = None,
) -> RunResult:
    """Execute the online loop for ``runs`` repetitions and aggregate the error.

    Per run and per time step, in order: form the masked observation, let the
    predictor propose values for every missing node from the frozen previous
    state, clamp observed nodes to their observed values, assemble the column,
    extend the history. The predictor never sees ground truth (the loop itself
    reads it only through the causal guard), so no estimate can depend on
    future columns. ``mask`` (one mask for every run, or a :class:`MaskSpec`)
    gives each run's mask, which carries its missing index, and the recorded
    policy. Each value is checked once, by its maker: series and mask when made,
    each step's observation shapes by :func:`observation_from_column`, and
    the predictor's proposals by :meth:`EstimateState.append`. The run that
    ``predictor.reset`` returns is stepped, and its calls are bound once per
    run; the last run's ``config_snapshot`` is recorded.
    """
    if truth.num_nodes != g.num_nodes:
        raise ValueError(f"truth covers {truth.num_nodes} nodes, graph has {g.num_nodes}")
    if not isinstance(runs, numbers.Integral):
        raise ValueError(f"runs must be an integer, got {runs!r}")
    runs = int(runs)
    if runs < 1:
        raise ValueError("runs must be at least 1")

    started = time.perf_counter()
    estimates: list[np.ndarray] = []
    masks_used: list[SamplingMask] = []
    per_run_stats: list[dict] = []
    access_logs: list = []
    prompt_logs: list = []

    for r in range(runs):
        run_mask = mask.mask_for_run(r, g.num_nodes)
        run = predictor.reset(g, run_mask, run_index=r)
        view = CausalSignalView(truth)
        state = EstimateState(g.num_nodes, truth.num_steps)
        missing = run_mask.missing
        advance, column, observe = view.advance, view.column, observation_from_column
        predict, append = run.predict_missing, state.append
        for t in range(truth.num_steps):
            advance(t)
            obs = observe(column(t), run_mask, t)
            append(obs.data, missing, predict(t, obs, state))
        estimates.append(state.matrix())
        estimates[-1].setflags(write=False)  # the writers keep its text, so it must not change
        masks_used.append(run_mask)
        per_run_stats.append(run.stats)
        access_logs.append(view.access_log)
        prompt_logs.append(run.prompt_log)

    aggregate = evaluate_mse(estimates, truth, masks_used)
    per_run_mse = [{"all_nodes": a, "missing_only": m} for a, m in aggregate.per_run]

    policy = mask.describe()
    config = {
        "predictor": predictor.name,
        "runs": runs,
        "mask": policy,
        **run.config_snapshot(),
    }
    context = {
        "graph_sha256": graph_sha256(g),
        "signal_sha256": signal_sha256(truth),
        "num_nodes": g.num_nodes,
        "num_steps": truth.num_steps,
        "units": truth.units,
        "mask_policy": policy,
    }
    return RunResult(
        name=name or predictor.name,
        config=config,
        context=context,
        estimates=estimates,
        masks=masks_used,
        per_run_mse=per_run_mse,
        mse_all=aggregate.all_nodes,
        mse_missing=aggregate.missing_only,
        fallback_uses=sum(s.get("fallback_uses", 0) for s in per_run_stats),
        per_run_stats=per_run_stats,
        wall_clock_s=time.perf_counter() - started,
        access_logs=access_logs,
        prompt_logs=prompt_logs,
        truth=truth,
    )


class ComparisonTable:
    """Result ranking across algorithms run on the same experiment context.

    ``rows`` are the ranked :class:`RunResult` objects themselves.
    """

    def __init__(self, rows: Sequence[RunResult]):
        self.rows = list(rows)

    def to_text(self) -> str:
        header = ("model", "mse", "mse_missing", "fallbacks")
        widths = [len(h) for h in header]
        printed = []
        for row in self.rows:
            cells = (row.name, f"{row.mse_all:.6g}", f"{row.mse_missing:.6g}", str(row.fallback_uses))
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            printed.append(cells)
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for cells in printed:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        lines.append("")
        for row in self.rows:
            lines.append(f"[{row.name}] {_config_note(row.config)}")
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "mse_all", "mse_missing", "fallback_uses", "config"])
            for row in self.rows:
                writer.writerow([row.name, repr(row.mse_all), repr(row.mse_missing), row.fallback_uses,
                                 _config_note(row.config)])


def _config_note(config: dict) -> str:
    skip = {"mask"}
    parts = [f"{k}={config[k]}" for k in sorted(config) if k not in skip]
    mask = config.get("mask")
    if mask:
        parts.append("mask=" + ",".join(f"{k}:{mask[k]}" for k in sorted(mask)))
    return " ".join(parts)


def compare(results: Sequence[RunResult]) -> ComparisonTable:
    """Rank results by all-nodes error, refusing to mix experiment contexts."""
    results = list(results)
    if not results:
        raise ValueError("nothing to compare")
    reference = results[0].context
    for res in results[1:]:
        if res.context != reference:
            raise ValueError(
                f"comparison error: result {res.name!r} was produced under a different "
                "experiment context (graph, signal, or mask policy differs)"
            )
    return ComparisonTable(sorted(results, key=lambda r: r.mse_all))


def mse_over_time(result: RunResult):
    """Per-step error against ``result.truth``, averaged over runs: (t, all, missing-only) arrays."""
    truth = result.truth
    if truth is None:
        raise ValueError("ground truth is needed to compute the error trajectory")
    steps = truth.num_steps
    all_curve = np.zeros(steps)
    missing_curve = np.zeros(steps)
    for est, mask in zip(result.estimates, result.masks):
        diff2 = (truth.values - np.asarray(est)) ** 2
        all_curve += diff2.mean(axis=0)
        rows = mask.missing
        if len(rows):
            missing_curve += diff2[rows, :].mean(axis=0)
    runs = result.runs
    return np.arange(steps), all_curve / runs, missing_curve / runs
