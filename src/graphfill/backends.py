"""Completion backends: remote chat endpoint, deterministic mock, and record/replay.

Every request is self-contained; no backend ever attaches conversation state.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._format import format_value
from .messenger import NodeTask

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
    "batch_complete",
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
    prompts (a remote batch) has none. Its one constructor checks the
    temperature and ``max_tokens``, which leave the program with the prompt.
    """

    prompt: str
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 16
    request_id: str = ""
    task: NodeTask | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_temperature(self.temperature)
        if int(self.max_tokens) < 1:
            raise ValueError("max_tokens must be at least 1")


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
        if not 0.0 <= float(self.mock_alpha) <= 1.0:
            raise ValueError(f"mock_alpha must be in [0, 1], got {self.mock_alpha}")
        if int(self.max_in_flight) < 1:
            raise ValueError("max_in_flight must be at least 1")
        if int(self.max_retries) < 0:
            raise ValueError("max_retries must be nonnegative")
        if not (math.isfinite(float(self.timeout_s)) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be a finite number > 0, got {self.timeout_s}")
        if not (math.isfinite(float(self.backoff_base_s)) and self.backoff_base_s >= 0):
            raise ValueError(f"backoff_base_s must be a finite number >= 0, got {self.backoff_base_s}")


def check_temperature(temperature: float) -> float:
    """``temperature`` as a float; ValueError unless it is a finite number >= 0."""
    value = float(temperature)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"temperature must be a finite number >= 0, got {temperature}")
    return value


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def mock_predict(task: NodeTask, alpha: float) -> str:
    """Deterministic stand-in predictor blending temporal and spatial context.

    Returns ``alpha * previous estimate + (1 - alpha) * neighbor mean`` as
    plain decimal text; whichever side is absent drops out and the other takes
    full weight. An infeasible task, or a mean or blend that overflows to a
    non-finite value, yields the literal text "NaN", which parses as a
    ``nan-literal`` failure. ``MessengerPredictor`` never sends an infeasible
    task: it falls back without a request.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
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
    """Stateless completion source. Subclasses implement ``complete``."""

    kind = "abstract"

    def complete(self, req: CompletionRequest) -> str:
        """The reply text for one request; everything it needs travels in ``req``."""
        raise NotImplementedError

    def complete_batch(self, reqs: Sequence[CompletionRequest]) -> list[str]:
        """Default batching: independent per-item calls, so counts always match."""
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


def read_replay_file(path: str | Path) -> dict[str, str]:
    """Load a line-delimited JSON replay file into a prompt-hash -> response map.

    A prompt hash may repeat (re-recording appends) only with the same
    response; two different responses for one prompt are an error.
    """
    path = Path(path)
    records: dict[str, str] = {}
    first_seen: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, text = record["prompt_sha256"], record["response_text"]
            # The recorder writes a remote reply as it came: text, or null for an empty one.
            if not isinstance(key, str) or not (text is None or isinstance(text, str)):
                raise TypeError("prompt_sha256 must be a string and response_text a string or null")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad replay record: {exc}") from None
        if key in records and records[key] != text:
            raise ValueError(
                f"{path}: lines {first_seen[key]} and {lineno} record different responses "
                f"for prompt hash {key[:12]}..."
            )
        records[key] = text
        first_seen.setdefault(key, lineno)
    return records


def append_replay_record(
    path: str | Path, prompt: str, response_text: str, model: str, temperature: float
) -> None:
    record = {
        "prompt_sha256": prompt_sha256(prompt),
        "response_text": response_text,
        "model": model,
        "temperature": float(temperature),
    }
    with Path(path).open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


class ReplayBackend(Backend):
    """Replays previously recorded responses keyed by a hash of the prompt."""

    kind = "replay"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.responses = read_replay_file(self.path)

    def complete(self, req: CompletionRequest) -> str:
        key = prompt_sha256(req.prompt)
        try:
            return self.responses[key]
        except KeyError:
            raise ReplayMissError(
                f"no recorded response for prompt hash {key[:12]}... (request {req.request_id or 'unnamed'})"
            ) from None


class RecordingBackend(Backend):
    """Wraps another backend and appends every successful response to a replay file."""

    def __init__(self, inner: Backend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.kind = f"record+{inner.kind}"

    def complete(self, req: CompletionRequest) -> str:
        text = self.inner.complete(req)
        append_replay_record(self.path, req.prompt, text, req.model, req.temperature)
        return text

    def complete_batch(self, reqs):
        texts = self.inner.complete_batch(reqs)
        if len(texts) == len(reqs):
            for req, text in zip(reqs, texts):
                append_replay_record(self.path, req.prompt, text, req.model, req.temperature)
        return texts


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
    ``max_retries``; the in-flight semaphore is held only around the network
    call, so waiting out a backoff never blocks unrelated requests.
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
                self._sleep(delay)
        raise BackendUnavailableError(
            f"request {req.request_id or 'unnamed'}: retries exhausted ({last_issue})"
        )

    def complete_batch(self, reqs):
        """Single call carrying every prompt, and no task; replies are split on lines.

        Unreliable by nature (the response count is not guaranteed); callers
        must go through :func:`batch_complete` for the count guard.
        """
        if not reqs:
            return []
        joined = [f"Task {i + 1} of {len(reqs)}:\n{req.prompt}" for i, req in enumerate(reqs)]
        joined.append(f"Reply with exactly {len(reqs)} lines, one decimal number per line, in task order.")
        combined = "\n\n".join(joined)
        first = reqs[0]
        batch_req = CompletionRequest(
            prompt=combined,
            model=first.model,
            temperature=first.temperature,
            max_tokens=max(first.max_tokens * len(reqs), first.max_tokens),
            request_id=f"batch[{first.request_id}+{len(reqs) - 1}]",
        )
        text = self.complete(batch_req)
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


def batch_complete(reqs: Sequence[CompletionRequest], backend: Backend) -> list:
    """Batched completion through ``backend`` with the response-count guard.

    Returns one outcome per request: its reply text or the
    :class:`BackendError` that failed it. A backend error fails every item;
    so does a reply count that differs from the request count, with one
    ``BackendUnavailableError`` naming both counts and a logged diagnostic.
    Responses are never realigned.
    """
    reqs = list(reqs)
    if not reqs:
        return []
    try:
        texts = backend.complete_batch(reqs)
    except BackendError as exc:
        logger.warning("batch of %d requests failed outright: %s", len(reqs), exc)
        return [exc] * len(reqs)
    if len(texts) != len(reqs):
        logger.warning(
            "batch count mismatch: %d requests but %d responses; failing every item",
            len(reqs), len(texts),
        )
        reason = f"batch count mismatch: {len(reqs)} requests, {len(texts)} responses"
        return [BackendUnavailableError(reason)] * len(reqs)
    return list(texts)
