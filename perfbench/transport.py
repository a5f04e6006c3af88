"""Stand-in chat-completions endpoint for the remote backend.

Each call sleeps a fixed delay on the caller's thread and answers with a
number derived from the prompt: the mean of the values the prompt lists.
A sleep on a loaded shared host overshoots by a varying share of a
millisecond, which over thousands of 2 ms calls moved the total wait by
several seconds from run to run. A real endpoint's latency does not depend
on this host's load, so each thread carries its overshoot into its next
call and sleeps that much less: a thread's total wait stays within one
overshoot of calls x delay.
Faults are keyed on the prompt's SHA-256, never on call order, so a
concurrent caller sees exactly the faults a sequential one does:

* about 2% of prompts get one HTTP 429, then succeed;
* about 1% get HTTP 500 on every attempt;
* about 1% get a reply holding two conflicting numbers.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import Counter
from typing import Callable

RATE_LIMITED = "rate-limited"
SERVER_ERROR = "server-error"
CONFLICTING = "conflicting"

# Cumulative shares of the prompt-hash space given to each fault.
_FAULT_BANDS = ((0.02, RATE_LIMITED), (0.03, SERVER_ERROR), (0.04, CONFLICTING))

_VALUE_RE = re.compile(
    r"^(?:- station \d+|Previous estimate for station \d+ \(time step -?\d+\)): (\S+)",
    re.MULTILINE,
)


def fault_for(prompt: str) -> str | None:
    """The fault injected for ``prompt``, a pure function of its SHA-256."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    share = int.from_bytes(digest[:8], "big") / 2.0**64
    for bound, fault in _FAULT_BANDS:
        if share < bound:
            return fault
    return None


def reply_value(prompt: str) -> float:
    """Mean of the previous estimate and neighbor values the prompt lists (0 if none)."""
    values = [float(tok) for tok in _VALUE_RE.findall(prompt)]
    return sum(values) / len(values) if values else 0.0


class FaultyTransport:
    """Callable matching graphfill's ``Transport`` seam: ``(url, headers, payload, timeout)``.

    Records transport calls, HTTP status counts, peak concurrent calls and
    the distinct prompts that received each fault.
    """

    def __init__(self, delay_s: float = 0.002, sleep: Callable[[float], None] = time.sleep):
        self.delay_s = float(delay_s)
        self._sleep = sleep
        self._overshoot = threading.local()
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0
        self.calls = 0
        self.status: Counter = Counter()
        self.faulted: dict[str, set] = {RATE_LIMITED: set(), SERVER_ERROR: set(), CONFLICTING: set()}

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float) -> tuple:
        prompt = payload["messages"][-1]["content"]
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        fault = fault_for(prompt)
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            first_time = fault is not None and key not in self.faulted[fault]
            if fault is not None:
                self.faulted[fault].add(key)
        try:
            self._wait()
        finally:
            with self._lock:
                self._in_flight -= 1

        if fault == SERVER_ERROR:
            status, body = 500, {"error": {"message": "internal error"}}
        elif fault == RATE_LIMITED and first_time:
            status, body = 429, {"error": {"message": "rate limited"}}
        else:
            value = reply_value(prompt)
            text = repr(value) if fault != CONFLICTING else f"{value!r}, or maybe {value + 1.0!r}"
            status, body = 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
        with self._lock:
            self.status[status] += 1
        return status, body

    def _wait(self) -> None:
        """Sleep ``delay_s``, less the overshoot this thread's earlier sleeps left."""
        owed = getattr(self._overshoot, "s", 0.0)
        asked = max(0.0, self.delay_s - owed)
        start = time.perf_counter()
        if asked:
            self._sleep(asked)
        slept = time.perf_counter() - start
        self._overshoot.s = max(0.0, owed - (self.delay_s - asked) + slept - asked)

    def expected_calls(self, requests: int, max_retries: int) -> int:
        """Transport calls the recorded faults imply for ``requests`` completions."""
        return (
            requests
            + len(self.faulted[RATE_LIMITED])
            + max_retries * len(self.faulted[SERVER_ERROR])
        )
