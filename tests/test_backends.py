"""Completion backends: mock arithmetic, record/replay, remote retries, batch guard."""

import json
import logging
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from graphfill.backends import (
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
    batch_complete,
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


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_request_refuses_a_non_finite_or_negative_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        req(temperature=temperature)


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


def test_read_replay_file_rejects_garbage(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError):
        read_replay_file(path)


def replay_line(prompt, text):
    return json.dumps({"prompt_sha256": prompt_sha256(prompt), "response_text": text,
                       "model": "m", "temperature": 0.0}) + "\n"


def test_read_replay_file_accepts_identical_duplicates(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(replay_line("a", "1.5") + replay_line("b", "2") + replay_line("a", "1.5"))
    assert read_replay_file(path) == {prompt_sha256("a"): "1.5", prompt_sha256("b"): "2"}


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
    path.write_text(replay_line("a", None))
    assert ReplayBackend(path).complete(req("a")) is None


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
        BackendConfig(kind="mock", mock_alpha=1.5)
    with pytest.raises(ValueError):
        BackendConfig(kind="mock", max_in_flight=0)


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
    texts = batch_complete(reqs, MockBackend(0.5))
    assert texts == [mock_predict(t, 0.5) for t in tasks]


class ShortBatchBackend(MockBackend):
    """Returns one fewer response than requested, simulating a miscounting model."""

    def complete_batch(self, reqs):
        full = super().complete_batch(reqs)
        return full[:-1]


def test_batch_count_mismatch_fails_every_item(caplog):
    tasks = [task_with(float(i), [1.0]) for i in range(5)]
    reqs = [req(f"p{i}", task=t) for i, t in enumerate(tasks)]
    with caplog.at_level(logging.WARNING, logger="graphfill.backends"):
        out = batch_complete(reqs, ShortBatchBackend(0.5))
    assert len(out) == 5
    assert all(isinstance(item, BackendError) for item in out)
    assert any("mismatch" in r.getMessage() for r in caplog.records)


def test_batch_backend_error_fails_every_item(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = batch_complete([req("a"), req("b")], ReplayBackend(path))
    assert all(isinstance(item, BackendError) for item in out)


def test_batch_failures_are_the_backend_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = batch_complete([req("a"), req("b")], ReplayBackend(path))
    assert [type(item) for item in out] == [ReplayMissError] * 2
    assert str(out[0]).startswith(f"no recorded response for prompt hash {prompt_sha256('a')[:12]}")
    reqs = [req(f"p{i}", task=task_with(float(i), [1.0])) for i in range(3)]
    out = batch_complete(reqs, ShortBatchBackend(0.5))
    assert [type(item) for item in out] == [BackendUnavailableError] * 3
    assert [str(item) for item in out] == ["batch count mismatch: 3 requests, 2 responses"] * 3


def test_batch_empty_request_list():
    assert batch_complete([], MockBackend()) == []


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
    assert batch_complete(reqs, backend) == ["1", "2"]
    assert len(sent) == 1
    assert sent[0].task is None
    assert "Task 1 of 2:\na" in sent[0].prompt and "Task 2 of 2:\nb" in sent[0].prompt
