"""Completion backends: remote chat endpoint, deterministic mock, and record/replay.

Every request is self-contained; no backend ever attaches conversation state.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._format import format_value, read_text
from .messenger import DEFAULT_INSTRUCTION, NodeTask

logger = logging.getLogger(__name__)

__all__ = [
    "CompletionRequest",
    "BackendConfig",
    "BackendError",
    "BackendUnavailableError",
    "ReplayMissError",
    "TransportFailure",
    "Backend",
    "MockBackend",
    "ReplayBackend",
    "RecordingBackend",
    "RemoteBackend",
    "make_backend",
    "mock_predict",
    "prompt_sha256",
    "read_replay_file",
    "append_replay_record",
]

BACKEND_KINDS = ("remote", "mock", "replay")
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


class BackendError(Exception):
    """Base class for completion backend failures."""


class BackendUnavailableError(BackendError):
    """The backend could not produce a response (retries exhausted or hard failure)."""


class ReplayMissError(BackendError):
    """The replay file has no record for the requested prompt."""


class TransportFailure(Exception):
    """Connection-level failure (timeout, refused connection); retryable."""


@dataclass
class CompletionRequest:
    """One self-contained completion call; never carries conversation history.

    ``task`` is the :class:`NodeTask` the prompt was rendered from. The mock
    backend answers from it; every other backend sends only the prompt. It
    takes no part in equality or the repr, and a request that joins several
    prompts (a remote batch) has none. A plain record: its maker, ``MessengerPredictor``,
    checked the temperature and ``max_tokens`` when built; a remote batch copies them.
    """

    prompt: str
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 16
    request_id: str = ""
    task: NodeTask | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BackendConfig:
    """Which backend to use and how. The credential is named, never stored."""

    kind: str
    endpoint: str = DEFAULT_ENDPOINT
    credential_env: str = "OPENAI_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_base_s: float = 0.5
    max_in_flight: int = 4
    mock_alpha: float = 0.5
    replay_path: str | None = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backend requires an endpoint URL")
        if self.kind == "remote" and not self.credential_env:
            raise ValueError("remote backend requires a credential environment variable name")
        if self.kind == "replay" and not self.replay_path:
            raise ValueError("replay backend requires a record file path")
        for name, least in (("max_in_flight", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (math.isfinite(float(self.timeout_s)) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be a finite number > 0, got {self.timeout_s}")
        if not (math.isfinite(float(self.backoff_base_s)) and self.backoff_base_s >= 0):
            raise ValueError(f"backoff_base_s must be a finite number >= 0, got {self.backoff_base_s}")


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def mock_predict(task: NodeTask, alpha: float) -> str:
    """Deterministic stand-in predictor blending temporal and spatial context.

    Returns ``alpha * previous estimate + (1 - alpha) * neighbor mean`` as
    plain decimal text; whichever side is absent drops out and the other takes
    full weight. An infeasible task, or a mean or blend that overflows to a
    non-finite value, yields the literal text "NaN", which parses as a
    ``nan-literal`` failure. ``MessengerPredictor`` never sends an infeasible
    task: it falls back without a request. ``alpha`` is in [0, 1], checked by
    the :class:`MockBackend` that holds it.
    """
    has_prev = task.prev_estimate is not None
    has_neighbors = len(task.neighbor_values) > 0
    if not has_prev and not has_neighbors:
        return "NaN"
    if not has_neighbors:
        return format_value(task.prev_estimate)
    # np.mean's own reduction and division, so the bits match np.mean exactly
    values = [x for _, x, _ in task.neighbor_values]
    # errstate costs more than the sum: skip it unless a partial sum (about n * max|x| at most) could overflow.
    if float(max(map(abs, values))) * len(values) < 2.0**1023:
        value = float(np.add.reduce(values)) / len(values)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf, answers "NaN" below
            value = float(np.add.reduce(values)) / len(values)
    if has_prev:
        value = alpha * task.prev_estimate + (1.0 - alpha) * value
    return format_value(value) if math.isfinite(value) else "NaN"


class Backend:
    """Stateless completion source. Subclasses implement ``complete``; one that
    batches supplies only its reply texts, through ``_batch_replies``."""

    kind = "abstract"

    def complete(self, req: CompletionRequest) -> str:
        """The reply text for one request; everything it needs travels in ``req``."""
        raise NotImplementedError

    def complete_each(self, reqs: Sequence[CompletionRequest]) -> list:
        """Per request, in order, its reply text or the ``BackendError`` that failed it."""
        return [self._outcome(req) for req in reqs]

    def _outcome(self, req: CompletionRequest):
        try:
            return self.complete(req)
        except BackendError as exc:
            return exc

    def complete_batch(self, reqs: Sequence[CompletionRequest]) -> list:
        """One batch's outcomes, as :meth:`complete_each` gives them, through the count guard.

        A backend error fails every item; so does a reply count that differs
        from the request count, with one ``BackendUnavailableError`` naming
        both counts and a logged diagnostic. Replies are never realigned.
        """
        if not reqs:
            return []
        try:
            texts = self._batch_replies(reqs)
        except BackendError as exc:
            logger.warning("batch of %d requests failed outright: %s", len(reqs), exc)
            return [exc] * len(reqs)
        if len(texts) != len(reqs):
            logger.warning("batch count mismatch: %d requests but %d responses; failing every item",
                           len(reqs), len(texts))
            reason = f"batch count mismatch: {len(reqs)} requests, {len(texts)} responses"
            return [BackendUnavailableError(reason)] * len(reqs)
        return list(texts)

    def _batch_replies(self, reqs: Sequence[CompletionRequest]) -> list[str]:
        """The reply texts for a non-empty batch: by default one ``complete`` per request."""
        return [self.complete(req) for req in reqs]


class MockBackend(Backend):
    kind = "mock"

    def __init__(self, alpha: float = 0.5):
        if not 0.0 <= float(alpha) <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def complete(self, req: CompletionRequest) -> str:
        if req.task is None:
            raise ValueError("mock backend needs a request that carries its node task")
        return mock_predict(req.task, self.alpha)


def read_replay_file(path: str | Path) -> dict[str, tuple]:
    """Load a line-delimited JSON replay file into a prompt-hash -> record map.

    Each record is ``(response text, model, temperature, line number)``. A
    prompt hash may repeat (re-recording appends) only with the same text,
    model and temperature; a differing one is an error naming both lines.
    """
    path = Path(path)
    records: dict[str, tuple] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, text = record["prompt_sha256"], record["response_text"]
            # The recorder writes a remote reply as it came: text, or null for an empty one.
            if not isinstance(key, str) or not (text is None or isinstance(text, str)):
                raise TypeError("prompt_sha256 must be a string and response_text a string or null")
            model, temperature = record["model"], record["temperature"]
            if not isinstance(model, str) or type(temperature) not in (int, float):
                raise TypeError("model must be a string and temperature a number")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad replay record: {exc}") from None
        first = records.setdefault(key, (text, model, float(temperature), lineno))
        if first[:3] != (text, model, float(temperature)):
            raise ValueError(
                f"{path}: lines {first[3]} and {lineno} record different responses "
                f"for prompt hash {key[:12]}..."
            )
    return records


def _replay_line(prompt: str, response_text: str, model: str, temperature: float) -> str:
    """One replay record as the line :func:`read_replay_file` reads."""
    record = {
        "prompt_sha256": prompt_sha256(prompt),
        "response_text": response_text,
        "model": model,
        "temperature": float(temperature),
    }
    return json.dumps(record, sort_keys=True) + "\n"


def append_replay_record(
    path: str | Path, prompt: str, response_text: str, model: str, temperature: float
) -> None:
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(_replay_line(prompt, response_text, model, temperature))


class ReplayBackend(Backend):
    """Replays previously recorded responses keyed by a hash of the prompt."""

    kind = "replay"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.records = read_replay_file(self.path)

    def complete(self, req: CompletionRequest) -> str:
        key = prompt_sha256(req.prompt)
        try:
            text, model, temperature, lineno = self.records[key]
        except KeyError:
            raise ReplayMissError(
                f"no recorded response for prompt hash {key[:12]}... (request {req.request_id or 'unnamed'})"
            ) from None
        if (model, temperature) != (req.model, req.temperature):
            raise ValueError(  # not a BackendError: another model's answers make a wrong run, not a failed request
                f"{self.path}:{lineno}: recorded for model {model!r} at temperature {temperature}, "
                f"requested for model {req.model!r} at temperature {req.temperature}"
            )
        return text


class RecordingBackend(Backend):
    """Wraps another backend; each method appends the reply texts it gives to a replay file."""

    def __init__(self, inner: Backend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.kind = f"record+{inner.kind}"
        self.alpha = getattr(inner, "alpha", None)  # a wrapped mock's, for the run's config

    def complete(self, req: CompletionRequest) -> str:
        return self._record([req], [self.inner.complete(req)])[0]

    def complete_each(self, reqs):
        return self._record(reqs, self.inner.complete_each(reqs))

    def complete_batch(self, reqs):
        return self._record(reqs, self.inner.complete_batch(reqs))

    def _record(self, reqs, outcomes):
        """Append each reply in request order, whatever order the inner backend posted in, through one handle."""
        with self.path.open("a", encoding="utf-8") as fh:
            for req, outcome in zip(reqs, outcomes):
                if not isinstance(outcome, BackendError):
                    fh.write(_replay_line(req.prompt, outcome, req.model, req.temperature))
        return outcomes


def _urllib_transport(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON; returns (HTTP status, decoded JSON body or None).

    The HTTP modules are imported here, on first use, because they load ssl:
    several megabytes that offline runs never need.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, _json_or_none(resp.read())
    except urllib.error.HTTPError as exc:  # a reply with an error status, not a lost connection
        with exc:
            return exc.code, _json_or_none(exc.read())
    except (OSError, http.client.HTTPException) as exc:
        # URLError (a refused connection) is an OSError, as are timeouts and
        # resets while the reply is read.
        raise TransportFailure(str(exc)) from exc


def _json_or_none(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


Transport = Callable[[str, dict, dict, float], tuple]


class RemoteBackend(Backend):
    """Chat-completions client with retries, backoff, and an in-flight cap.

    Each call posts one stateless request. Transient failures (timeouts,
    HTTP 429, HTTP 5xx) are retried with exponential backoff up to
    ``max_retries``. :meth:`complete_each` posts one request at a time from
    the caller's thread; while one waits out a backoff, the thread posts the
    next unsent ones through ``complete``, then sleeps what is left of the
    delay. The ``max_in_flight`` semaphore caps posts across threads. A batch
    is one joined request, whose reply lines the inherited
    :meth:`~Backend.complete_batch` counts against the requests.
    """

    kind = "remote"

    def __init__(
        self,
        cfg: BackendConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        credential = os.environ.get(cfg.credential_env, "")
        if not credential:
            raise BackendUnavailableError(
                f"environment variable {cfg.credential_env} is not set; "
                "export the API credential before using the remote backend"
            )
        self._cfg = cfg
        self._headers = {
            "Authorization": f"Bearer {credential}",
            "Content-Type": "application/json",
        }
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        self._in_flight = threading.BoundedSemaphore(cfg.max_in_flight)
        self._local = threading.local()  # .step: this thread's (unsent, outcomes), while complete_each runs

    def _post_once(self, payload: dict) -> tuple:
        with self._in_flight:
            return self._transport(self._cfg.endpoint, self._headers, payload, self._cfg.timeout_s)

    def complete(self, req: CompletionRequest) -> str:
        payload = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        cfg = self._cfg
        last_issue = "no attempt made"
        for attempt in range(cfg.max_retries + 1):
            try:
                status, body = self._post_once(payload)
            except TransportFailure as exc:
                last_issue = f"transport failure: {exc}"
            else:
                if status == 200:
                    text = _extract_message(body)
                    if attempt > 0:
                        logger.info(
                            "request %s succeeded after %d retr%s",
                            req.request_id or "unnamed", attempt, "y" if attempt == 1 else "ies",
                        )
                    return text
                if status == 429 or status >= 500:
                    last_issue = f"HTTP {status}"
                else:
                    raise BackendUnavailableError(
                        f"request {req.request_id or 'unnamed'} failed with HTTP {status}"
                    )
            if attempt < cfg.max_retries:
                delay = cfg.backoff_base_s * (2.0**attempt)
                logger.info(
                    "retrying request %s after %s (attempt %d of %d, backoff %.2fs)",
                    req.request_id or "unnamed", last_issue, attempt + 1, cfg.max_retries, delay,
                )
                self._wait_out(delay)
        raise BackendUnavailableError(
            f"request {req.request_id or 'unnamed'}: retries exhausted ({last_issue})"
        )

    def complete_each(self, reqs):
        outcomes = [None] * len(reqs)
        unsent = iter(enumerate(reqs))  # shared with the backoffs, which take from it too
        self._local.step = (unsent, outcomes)
        try:
            for i, req in unsent:
                outcomes[i] = self._outcome(req)
        finally:
            self._local.step = None
        return outcomes

    def _wait_out(self, delay: float) -> None:
        """Sleep ``delay``, first posting this thread's unsent requests while it lasts."""
        step = getattr(self._local, "step", None)
        if step and delay > 0:
            unsent, outcomes = step
            start = time.monotonic()
            self._local.step = None  # a request posted here waits out its own backoff asleep
            try:
                for i, req in unsent:
                    outcomes[i] = self._outcome(req)
                    if time.monotonic() - start >= delay:
                        break
            finally:
                self._local.step = step
            delay = max(0.0, delay - (time.monotonic() - start))
        self._sleep(delay)

    def _batch_replies(self, reqs):
        """Single call carrying every prompt under one header stating the reply format, and no task; replies
        are split on lines. Each task's own instruction (a single number) is left out of the joined text
        only: the requests keep their whole prompts, which replay files hash."""
        n = len(reqs)
        joined = [f"Reply with exactly {n} lines, one decimal number per line, in task order: your best estimate "
                  "for each task's station and time step only, from this message alone, not chat memory."]
        for i, req in enumerate(reqs):
            text, task = req.prompt, req.task
            if task is not None:
                text = text.replace(DEFAULT_INSTRUCTION.format(node_id=task.node_id, time_index=task.time_index), "")
            joined.append(f"Task {i + 1} of {n}:\n{text.rstrip()}")
        combined = "\n\n".join(joined)
        first = reqs[0]
        batch_req = CompletionRequest(
            prompt=combined,
            model=first.model,
            temperature=first.temperature,
            max_tokens=first.max_tokens * n,
            request_id=f"batch[{first.request_id}+{n - 1}]",
        )
        text = self.complete(batch_req) or ""  # a reply with no text is no lines
        return [line for line in (ln.strip() for ln in text.splitlines()) if line]


def _extract_message(body) -> str | None:
    """The reply text of a 200 body: a string, or None (parsed as empty)."""
    try:
        text = body["choices"][0]["message"]["content"]
        if text is None or isinstance(text, str):
            return text
    except (TypeError, KeyError, IndexError):
        pass
    raise BackendUnavailableError(f"malformed completion response: {body!r}")


def make_backend(
    cfg: BackendConfig,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Backend:
    if cfg.kind == "mock":
        return MockBackend(cfg.mock_alpha)
    if cfg.kind == "replay":
        return ReplayBackend(cfg.replay_path)
    return RemoteBackend(cfg, transport=transport, sleep=sleep)
