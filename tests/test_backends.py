"""Completion backends: mock arithmetic, record/replay, remote retries, batch guard."""

import json
import logging
import math
import re
import socket
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill.backends import (
    Backend,
    BackendConfig,
    BackendError,
    BackendUnavailableError,
    CompletionRequest,
    MockBackend,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ReplayMissError,
    TransportFailure,
    _urllib_transport,
    append_replay_record,
    make_backend,
    mock_predict,
    prompt_sha256,
    read_replay_file,
)
from graphfill.messenger import NodeTask


def task_with(prev, neighbor_vals, units="m/s"):
    neighbors = tuple((i + 1, v, True) for i, v in enumerate(neighbor_vals))
    return NodeTask(node_id=0, time_index=1, prev_estimate=prev, neighbor_values=neighbors,
                    units=units)


def req(prompt="p", **kw):
    return CompletionRequest(prompt=prompt, **kw)


# ---------------------------------------------------------------- requests


def test_request_task_takes_no_part_in_equality_or_repr():
    t = task_with(1.0, [2.0])
    assert req("p", task=t) == req("p")
    assert req("p", task=t).task is t
    assert repr(req("p", task=t)) == repr(req("p"))


# ---------------------------------------------------------------- mock


def test_mock_blend():
    assert mock_predict(task_with(3.0, [2.0, 4.0]), 0.5) == "3"


def test_mock_neighbor_mean_without_prev():
    assert mock_predict(task_with(None, [2.0, 4.0]), 0.5) == "3"


def test_mock_prev_only():
    assert mock_predict(task_with(7.5, []), 0.25) == "7.5"


def test_mock_infeasible_returns_nan_text():
    assert mock_predict(task_with(None, []), 0.5) == "NaN"


def test_mock_overflow_returns_nan_text():
    # the neighbor sum overflows; so does a blend with an overflowed mean
    assert mock_predict(task_with(None, [1e308, 1e308]), 0.5) == "NaN"
    assert mock_predict(task_with(1e308, [1e308, 1e308]), 1.0) == "NaN"  # 0 * inf
    assert mock_predict(task_with(1.7e308, [1.7e308]), 0.5) == "1.7e+308"
    # A task built by hand may hold numpy floats; the overflow test must not overflow on them.
    assert mock_predict(task_with(None, [np.float64(1e308), np.float64(1e308)]), 0.5) == "NaN"


def test_mock_alpha_extremes():
    assert mock_predict(task_with(1.0, [9.0]), 1.0) == "1"
    assert mock_predict(task_with(1.0, [9.0]), 0.0) == "9"


def test_mock_backend_requires_task():
    # a missing task is caller misuse, not a transient backend failure
    with pytest.raises(ValueError):
        MockBackend().complete(req())


def test_mock_backend_stateless():
    backend = MockBackend(0.5)
    t = task_with(2.0, [4.0])
    first = backend.complete(req(task=t))
    backend.complete(req(task=task_with(100.0, [300.0])))
    assert backend.complete(req(task=t)) == first


# ---------------------------------------------------------------- replay


def test_record_then_replay_round_trip(tmp_path):
    path = tmp_path / "replay.jsonl"
    recording = RecordingBackend(MockBackend(0.5), path)
    t = task_with(3.0, [2.0, 4.0])
    text = recording.complete(req("prompt-a", task=t))
    assert text == "3"
    replay = ReplayBackend(path)
    assert replay.complete(req("prompt-a")) == "3"


def test_replay_miss_is_error(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text("")
    with pytest.raises(ReplayMissError):
        ReplayBackend(path).complete(req("never-recorded"))


def test_replay_file_format(tmp_path):
    path = tmp_path / "replay.jsonl"
    RecordingBackend(MockBackend(0.5), path).complete(
        req("prompt-b", model="gpt-3.5-turbo", temperature=0.0, task=task_with(1.0, [3.0]))
    )
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"prompt_sha256", "response_text", "model", "temperature"}
    assert record["prompt_sha256"] == prompt_sha256("prompt-b")
    assert record["response_text"] == "2"


@pytest.mark.parametrize("method", ["complete_each", "complete_batch"])
def test_recording_opens_its_file_once_per_step(tmp_path, monkeypatch, method):
    path, expected = tmp_path / "replay.jsonl", tmp_path / "expected.jsonl"
    reqs = [req(f"prompt {i}", task=task_with(float(i), [1.0])) for i in range(3)]
    opened, real_open = [], Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kw: opened.append(self) or real_open(self, *args, **kw))
    getattr(RecordingBackend(MockBackend(0.5), path), method)(reqs)
    assert opened == [path]
    monkeypatch.undo()
    for r in reqs:  # the same lines, record by record
        append_replay_record(expected, r.prompt, MockBackend(0.5).complete(r), r.model, r.temperature)
    assert path.read_bytes() == expected.read_bytes()


def test_read_replay_file_rejects_garbage(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError):
        read_replay_file(path)


def replay_line(prompt, text, model="m", temperature=0.0):
    return json.dumps({"prompt_sha256": prompt_sha256(prompt), "response_text": text,
                       "model": model, "temperature": temperature}) + "\n"


def test_read_replay_file_accepts_identical_duplicates(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("a", "1.5") + replay_line("b", "2") + replay_line("a", "1.5"))
    assert read_replay_file(path) == {prompt_sha256("a"): ("1.5", "m", 0.0, 1), prompt_sha256("b"): ("2", "m", 0.0, 2)}


def test_read_replay_file_rejects_conflicting_records(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("a", "1.5") + replay_line("b", "2") + replay_line("a", "7"))
    with pytest.raises(ValueError, match="lines 1 and 3"):
        read_replay_file(path)


@pytest.mark.parametrize("record", [
    {"prompt_sha256": prompt_sha256("a"), "response_text": 1.5},
    {"prompt_sha256": prompt_sha256("a"), "response_text": ["1.5"]},
    {"prompt_sha256": [prompt_sha256("a")], "response_text": "1.5"},
    {"prompt_sha256": 7, "response_text": "1.5"},
])
def test_read_replay_file_refuses_records_that_are_not_text(tmp_path, record):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("b", "2") + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"replay.jsonl:2: bad replay record"):
        read_replay_file(path)


def test_read_replay_file_keeps_a_recorded_empty_reply(tmp_path):
    # The recorder writes a remote reply whose content is null as null; it
    # replays as the same empty reply.
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("a", None, model=req("a").model))
    assert ReplayBackend(path).complete(req("a")) is None


def test_read_replay_file_refuses_a_record_without_its_model_or_temperature(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("b", "2") + replay_line("a", "1.5", model=None))
    with pytest.raises(ValueError, match=r"replay.jsonl:2: bad replay record: model must be a string"):
        read_replay_file(path)
    path.write_text(json.dumps({"prompt_sha256": prompt_sha256("a"), "response_text": "1", "model": "m"}) + "\n")
    with pytest.raises(ValueError, match=r"replay.jsonl:1: bad replay record: 'temperature'"):
        read_replay_file(path)


@pytest.mark.parametrize("second", [replay_line("a", "1.5", model="n"), replay_line("a", "1.5", temperature=0.5)],
                         ids=["model", "temperature"])
def test_read_replay_file_rejects_a_record_for_another_model_or_temperature(tmp_path, second):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("a", "1.5") + replay_line("b", "2") + second)
    with pytest.raises(ValueError, match="lines 1 and 3 record different responses"):
        read_replay_file(path)


@pytest.mark.parametrize("model, temperature", [("B", 0.5), ("A", 0.0), ("B", 0.0)])
def test_replay_answers_only_the_model_and_temperature_it_recorded(tmp_path, model, temperature):
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(replay_line(p, text, model="A", temperature=0.5) for p, text in (("b", "2"), ("a", "1.5"))))
    backend = ReplayBackend(path)
    assert backend.complete(req("a", model="A", temperature=0.5)) == "1.5"
    with pytest.raises(ValueError) as caught:  # not a BackendError: the run stops instead of falling back
        backend.complete(req("a", model=model, temperature=temperature))
    assert not isinstance(caught.value, BackendError)
    assert str(caught.value) == (f"{path}:2: recorded for model 'A' at temperature 0.5, "
                                 f"requested for model {model!r} at temperature {temperature}")
    with pytest.raises(ReplayMissError):
        backend.complete(req("c", model=model, temperature=temperature))


def test_make_backend_dispatch(tmp_path):
    assert isinstance(make_backend(BackendConfig(kind="mock")), MockBackend)
    path = tmp_path / "r.jsonl"
    path.write_text("")
    assert isinstance(make_backend(BackendConfig(kind="replay", replay_path=path)), ReplayBackend)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="telepathy")
    with pytest.raises(ValueError):
        BackendConfig(kind="replay")
    with pytest.raises(ValueError):
        make_backend(BackendConfig(kind="mock", mock_alpha=1.5))
    with pytest.raises(ValueError):
        BackendConfig(kind="mock", max_in_flight=0)


@pytest.mark.parametrize("field", ["max_retries", "max_in_flight"])
def test_config_refuses_a_count_that_is_not_an_integer(field):
    # Built, max_retries=1.5 made range() raise a TypeError at the first request, and
    # max_in_flight=1.5 a semaphore that never blocked.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        BackendConfig(kind="remote", **{field: 1.5})
    assert getattr(BackendConfig(kind="remote", **{field: np.int64(2)}), field) == 2


@pytest.mark.parametrize("field, value", [
    ("timeout_s", 0.0), ("timeout_s", -1.0), ("timeout_s", math.nan), ("timeout_s", math.inf),
    ("backoff_base_s", -0.5), ("backoff_base_s", math.nan), ("backoff_base_s", math.inf),
])
def test_config_refuses_a_timeout_or_backoff_that_cannot_be_waited(field, value):
    # Built, each raised a ValueError that is not a BackendError at the first connect or retry.
    with pytest.raises(ValueError, match=field):
        BackendConfig(kind="remote", **{field: value})


def test_config_accepts_a_zero_backoff(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    replies = iter([(500, {}), (200, ok_body("2"))])
    slept = []
    backend = RemoteBackend(BackendConfig(kind="remote", backoff_base_s=0.0, timeout_s=0.5),
                            transport=lambda *a: next(replies), sleep=slept.append)
    assert backend.complete(req("hello")) == "2"
    assert slept == [0.0]


# ---------------------------------------------------------------- remote


def ok_body(text):
    return {"choices": [{"message": {"content": text}}]}


def remote(cfg_kw=None, transport=None, env=None, monkeypatch=None):
    cfg = BackendConfig(kind="remote", **(cfg_kw or {}))
    return RemoteBackend(cfg, transport=transport, sleep=lambda s: None)


def test_remote_requires_credential(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    with pytest.raises(BackendUnavailableError, match="OPENAI_API_KEY"):
        remote()


def test_remote_success_and_payload(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    seen = {}

    def transport(url, headers, payload, timeout):
        seen.update(url=url, headers=headers, payload=payload)
        return 200, ok_body("4.5")

    backend = remote(transport=transport)
    text = backend.complete(req("hello", model="gpt-3.5-turbo", temperature=0.0, max_tokens=16))
    assert text == "4.5"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "hello"}]
    assert seen["payload"]["model"] == "gpt-3.5-turbo"
    assert seen["headers"]["Authorization"] == "Bearer sk-test-123"


def test_remote_retries_on_429_then_succeeds(monkeypatch, caplog):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    codes = iter([429, 429, 200])

    def transport(url, headers, payload, timeout):
        code = next(codes)
        return code, ok_body("1.0") if code == 200 else {"error": "slow down"}

    with caplog.at_level(logging.INFO, logger="graphfill.backends"):
        assert remote(transport=transport).complete(req()) == "1.0"
    retries = [r for r in caplog.records if "retry" in r.getMessage().lower()]
    assert len(retries) == 2


def test_remote_exhausts_retries(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")

    def transport(url, headers, payload, timeout):
        raise TransportFailure("connection reset")

    backend = remote(cfg_kw={"max_retries": 2}, transport=transport)
    with pytest.raises(BackendUnavailableError):
        backend.complete(req())


def test_remote_non_retryable_status_fails_immediately(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(1)
        return 401, {"error": "bad key"}

    with pytest.raises(BackendUnavailableError):
        remote(transport=transport).complete(req())
    assert len(calls) == 1


def test_remote_credential_never_logged(monkeypatch, caplog):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-secret-value-xyz")
    codes = iter([429, 200])

    def transport(url, headers, payload, timeout):
        code = next(codes)
        return code, ok_body("2") if code == 200 else {}

    with caplog.at_level(logging.DEBUG):
        remote(transport=transport).complete(req())
    for record in caplog.records:
        assert "sk-secret-value-xyz" not in record.getMessage()


def test_remote_in_flight_limit(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    lock = threading.Lock()
    active = {"now": 0, "peak": 0}
    gate = threading.Event()

    def transport(url, headers, payload, timeout):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        gate.wait(0.5)
        with lock:
            active["now"] -= 1
        return 200, ok_body("0")

    backend = remote(cfg_kw={"max_in_flight": 2}, transport=transport)
    threads = [threading.Thread(target=backend.complete, args=(req(f"p{i}"),)) for i in range(6)]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join()
    assert active["peak"] <= 2


def test_remote_malformed_body(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    backend = remote(transport=lambda *a: (200, {"unexpected": True}))
    with pytest.raises(BackendUnavailableError):
        backend.complete(req())


@pytest.mark.parametrize("content", [2.5, 3, ["1.5"], {"text": "1.5"}, True])
def test_remote_reply_that_is_not_text_is_a_backend_error(monkeypatch, content):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    backend = remote(transport=lambda *a: (200, ok_body(content)))
    with pytest.raises(BackendUnavailableError, match="malformed completion response"):
        backend.complete(req())


def test_remote_empty_reply_is_none(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    assert remote(transport=lambda *a: (200, ok_body(None))).complete(req()) is None


# ---------------------------------------------------------------- live transport


class _Handler(BaseHTTPRequestHandler):
    """Loopback endpoint: the request path picks the reply."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, payload, self.headers["Authorization"]))
        if self.path == "/slow":
            time.sleep(0.5)  # outlasts the client's timeout; no reply follows
            return
        status, body = {
            "/ok": (200, json.dumps(ok_body("4.5")).encode()),
            "/busy": (429, b'{"error": "slow down"}'),
            "/broken": (500, b"<html>oops</html>"),
            "/garbage": (200, b"not json"),
        }[self.path]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_urllib_transport_statuses_and_bodies(loopback):
    server, base = loopback
    headers = {"Authorization": "Bearer sk-test", "Content-Type": "application/json"}
    payload = {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
    assert _urllib_transport(base + "/ok", headers, payload, 5.0) == (200, ok_body("4.5"))
    assert _urllib_transport(base + "/busy", headers, payload, 5.0) == (429, {"error": "slow down"})
    assert _urllib_transport(base + "/broken", headers, payload, 5.0) == (500, None)
    assert _urllib_transport(base + "/garbage", headers, payload, 5.0) == (200, None)
    assert server.seen[0] == ("/ok", payload, "Bearer sk-test")


def test_urllib_transport_timeout_is_transport_failure(loopback):
    _, base = loopback
    with pytest.raises(TransportFailure):
        _urllib_transport(base + "/slow", {"Content-Type": "application/json"}, {}, 0.2)


def test_urllib_transport_closed_port_is_transport_failure(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportFailure):
        _urllib_transport(f"http://127.0.0.1:{port}/x", {}, {}, 2.0)


def test_remote_backend_over_loopback(loopback, monkeypatch):
    _, base = loopback
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    backend = RemoteBackend(BackendConfig(kind="remote", endpoint=base + "/ok"))
    assert backend.complete(req("hello")) == "4.5"
    busy = RemoteBackend(BackendConfig(kind="remote", endpoint=base + "/busy", max_retries=1),
                         sleep=lambda s: None)
    with pytest.raises(BackendUnavailableError, match="HTTP 429"):
        busy.complete(req("hello"))


# ---------------------------------------------------------------- batch


def test_batch_counts_match_in_order():
    tasks = [task_with(float(i), [float(i) + 2.0]) for i in range(5)]
    reqs = [req(f"p{i}", task=t) for i, t in enumerate(tasks)]
    texts = MockBackend(0.5).complete_batch(reqs)
    assert texts == [mock_predict(t, 0.5) for t in tasks]


class ShortBatchBackend(MockBackend):
    """Returns one fewer response than requested, simulating a miscounting model."""

    def _batch_replies(self, reqs):
        full = super()._batch_replies(reqs)
        return full[:-1]


def test_batch_count_mismatch_fails_every_item(caplog):
    tasks = [task_with(float(i), [1.0]) for i in range(5)]
    reqs = [req(f"p{i}", task=t) for i, t in enumerate(tasks)]
    with caplog.at_level(logging.WARNING, logger="graphfill.backends"):
        out = ShortBatchBackend(0.5).complete_batch(reqs)
    assert len(out) == 5
    assert all(isinstance(item, BackendError) for item in out)
    assert any("mismatch" in r.getMessage() for r in caplog.records)


def test_batch_backend_error_fails_every_item(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = ReplayBackend(path).complete_batch([req("a"), req("b")])
    assert all(isinstance(item, BackendError) for item in out)


def test_batch_failures_are_the_backend_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = ReplayBackend(path).complete_batch([req("a"), req("b")])
    assert [type(item) for item in out] == [ReplayMissError] * 2
    assert str(out[0]).startswith(f"no recorded response for prompt hash {prompt_sha256('a')[:12]}")
    reqs = [req(f"p{i}", task=task_with(float(i), [1.0])) for i in range(3)]
    out = ShortBatchBackend(0.5).complete_batch(reqs)
    assert [type(item) for item in out] == [BackendUnavailableError] * 3
    assert [str(item) for item in out] == ["batch count mismatch: 3 requests, 2 responses"] * 3


def test_batch_empty_request_list():
    assert MockBackend().complete_batch([]) == []


def test_remote_batch_sends_one_joined_request_without_a_task(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    sent = []

    class SpyRemote(RemoteBackend):
        def complete(self, req):
            sent.append(req)
            return super().complete(req)

    backend = SpyRemote(BackendConfig(kind="remote"), transport=lambda *a: (200, ok_body("1\n2")),
                        sleep=lambda s: None)
    reqs = [req("a", task=task_with(1.0, [])), req("b", task=task_with(2.0, []))]
    assert backend.complete_batch(reqs) == ["1", "2"]
    assert len(sent) == 1
    assert sent[0].task is None
    assert "Task 1 of 2:\na" in sent[0].prompt and "Task 2 of 2:\nb" in sent[0].prompt


# ---------------------------------------------------------------- one step, one request at a time


@pytest.mark.parametrize("post_s, backoff_s, order", [
    (0.002, 1.0, ["p0", "p1", "p2", "p3", "p0"]),  # the whole step goes within the backoff
    (0.005, 0.001, ["p0", "p1", "p0", "p2", "p3"]),  # one post outlasts it: the retry comes next
])
def test_a_request_waiting_out_its_backoff_lets_the_next_ones_go(monkeypatch, post_s, backoff_s, order):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    posted = []

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        posted.append(prompt)
        time.sleep(post_s)
        return (429, {}) if posted == ["p0"] else (200, ok_body(prompt[1:]))

    slept = []
    backend = RemoteBackend(BackendConfig(kind="remote", backoff_base_s=backoff_s),
                            transport=transport, sleep=slept.append)
    assert backend.complete_each([req(f"p{i}") for i in range(4)]) == ["0", "1", "2", "3"]
    assert posted == order
    assert len(slept) == 1 and 0.0 <= slept[0] < backoff_s


FAULTS = (None, "429-once", "500", "transport", "malformed", "400", "conflicting")


class KeyedFaultTransport:
    """Faults keyed on the prompt's SHA-256; counts calls and the most in flight at once."""

    def __init__(self, faults):
        self.faults = faults
        self.calls = self.in_flight = self.peak = 0
        self.limited = set()
        self.posters = {}  # prompt -> the threads that posted it
        self.lock = threading.Lock()

    def __call__(self, url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        key = prompt_sha256(prompt)
        fault = self.faults.get(key)
        with self.lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            first_429 = fault == "429-once" and key not in self.limited
            self.limited.add(key)
            self.posters.setdefault(prompt, set()).add(threading.get_ident())
        try:
            time.sleep(0)  # lets another thread's post begin meanwhile
            if fault == "transport":
                raise TransportFailure("connection reset")
            if first_429:
                return 429, {}
            if fault in ("500", "400"):
                return int(fault), {"error": "no"}
            if fault == "malformed":
                return 200, {"choices": []}
            return 200, ok_body(f"{len(prompt)}, or {len(prompt) + 1}" if fault == "conflicting" else prompt)
        finally:
            with self.lock:
                self.in_flight -= 1


class CountingRemote(RemoteBackend):
    def __init__(self, cfg, transport):
        self.slept, self.completed = [], []
        super().__init__(cfg, transport=transport, sleep=self.slept.append)

    def complete(self, req):
        self.completed.append(req.request_id)
        return super().complete(req)


def plain(outcome):
    return (type(outcome), str(outcome)) if isinstance(outcome, BackendError) else outcome


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FAULTS), st.sampled_from(["a", "b", "c"])), min_size=1, max_size=12),
       st.sampled_from([0.0, 1e-6, 1e-3]))
def test_complete_each_gives_the_outcomes_of_sequential_completes(step, backoff_s):
    # Prompts may repeat: a 429-once prompt then fails once, for whichever request posts it first.
    reqs = [req(f"prompt {text} {fault}", request_id=f"r{i}") for i, (fault, text) in enumerate(step)]
    faults = {prompt_sha256(r.prompt): fault for r, (fault, _) in zip(reqs, step)}
    cfg = BackendConfig(kind="remote", max_retries=2, backoff_base_s=backoff_s, max_in_flight=1)
    each_transport, sequential_transport = KeyedFaultTransport(faults), KeyedFaultTransport(faults)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENAI_API_KEY", "sk-test-123")
        each = CountingRemote(cfg, each_transport)
        sequential = CountingRemote(cfg, sequential_transport)
    got = each.complete_each(reqs)
    want = Backend.complete_each(sequential, reqs)  # complete on each request in turn
    assert [plain(o) for o in got] == [plain(o) for o in want]
    assert sorted(each.completed) == sorted(r.request_id for r in reqs)
    assert each_transport.peak == 1
    assert each_transport.calls == sequential_transport.calls
    assert len(each.slept) == len(sequential.slept) and sum(each.slept) <= sum(sequential.slept)


def test_threads_sharing_one_remote_backend_each_get_their_own_steps_outcomes(monkeypatch):
    # Each thread's unsent requests are its own: a backoff in one thread never posts another's.
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    steps = [[req(f"thread {k} prompt {i}", request_id=f"{k}-{i}") for i in range(12)] for k in range(6)]
    faults = {prompt_sha256(r.prompt): FAULTS[(k + i) % len(FAULTS)]
              for k, step in enumerate(steps) for i, r in enumerate(step)}
    transport = KeyedFaultTransport(faults)
    backend = RemoteBackend(BackendConfig(kind="remote", max_retries=2, backoff_base_s=1e-4, max_in_flight=2),
                            transport=transport, sleep=time.sleep)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(k):
            got[k] = threading.get_ident(), backend.complete_each(steps[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(steps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sequential = remote(cfg_kw={"max_retries": 2}, transport=KeyedFaultTransport(faults))
    for k, step in enumerate(steps):
        poster, outcomes = got[k]
        assert [plain(o) for o in outcomes] == [plain(o) for o in Backend.complete_each(sequential, step)]
        assert all(transport.posters[r.prompt] == {poster} for r in step)
    assert transport.peak <= 2


# ---------------------------------------------------------------- one outcome per request


class DrawnLinesBackend(MockBackend):
    """Answers a batch with a given number of lines: each request's own reply while they last."""

    def __init__(self, lines):
        super().__init__(0.5)
        self.lines = lines

    def _batch_replies(self, reqs):
        return (super()._batch_replies(reqs) + ["9"] * self.lines)[: self.lines]


class FailingBatchBackend(MockBackend):
    def _batch_replies(self, reqs):
        raise BackendUnavailableError("the batch endpoint is down")


BATCH_FAULTS = (None, "500", "400", "transport", "malformed", "short", "long")


class EchoTransport:
    """Echoes a prompt, or a batch's task prompts one per line; a batch's fault is keyed on its prompt's SHA-256."""

    def __init__(self, salt):
        self.salt = salt

    def __call__(self, url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        tasks = re.findall(r"^Task \d+ of \d+:\n(.*)$", prompt, re.M)
        if not tasks:
            return 200, ok_body(prompt)
        fault = BATCH_FAULTS[(int(prompt_sha256(prompt), 16) + self.salt) % len(BATCH_FAULTS)]
        if fault == "transport":
            raise TransportFailure("connection reset")
        if fault in ("500", "400"):
            return int(fault), {"error": "no"}
        if fault == "malformed":
            return 200, {"choices": []}
        return 200, ok_body("\n".join(tasks[:-1] if fault == "short" else tasks + ["1"] if fault == "long" else tasks))


def recorded_pairs(path):
    lines = path.read_text().splitlines() if path.exists() else []
    return [(record["prompt_sha256"], record["response_text"]) for record in map(json.loads, lines)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-3, 3)), max_size=12),
       st.sampled_from(["mock", "replay", "lines", "raises", "remote"]),
       st.sets(st.sampled_from("abcd")), st.integers(0, 14), st.integers(0, len(BATCH_FAULTS) - 1))
def test_both_step_paths_give_one_outcome_per_request(step, kind, recorded, lines, salt):
    reqs = [req(f"prompt {p}", request_id=f"r{i}", task=task_with(float(prev), [1.0]))
            for i, (p, prev) in enumerate(step)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENAI_API_KEY", "sk-test-123")
        replay = Path(tmp) / "replay.jsonl"
        replay.write_text("".join(replay_line(f"prompt {p}", f"{p}!", model=req().model) for p in sorted(recorded)))
        make = {
            "mock": lambda: MockBackend(0.5),
            "replay": lambda: ReplayBackend(replay),
            "lines": lambda: DrawnLinesBackend(lines),
            "raises": FailingBatchBackend,
            "remote": lambda: RemoteBackend(BackendConfig(kind="remote", max_retries=1, backoff_base_s=0.0),
                                            transport=EchoTransport(salt), sleep=lambda s: None),
        }[kind]
        backend = make()
        batch = backend.complete_batch(reqs)
        assert len(batch) == len(reqs)
        if any(isinstance(o, BackendError) for o in batch):
            assert isinstance(batch[0], BackendError) and all(o is batch[0] for o in batch)
        else:
            assert batch == [backend.complete(r) for r in reqs]
        each = backend.complete_each(reqs)
        assert [plain(o) for o in each] == [plain(backend._outcome(r)) for r in reqs]
        for method, want in (("complete_batch", batch), ("complete_each", each)):
            path = Path(tmp) / f"{method}.jsonl"
            got = getattr(RecordingBackend(make(), path), method)(reqs)
            assert [plain(o) for o in got] == [plain(o) for o in want]
            assert recorded_pairs(path) == [(prompt_sha256(r.prompt), o) for r, o in zip(reqs, want)
                                            if not isinstance(o, BackendError)]
