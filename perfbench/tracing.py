"""Span tracer that times a program's layers from outside.

A wrapper replaces a function or method under the name its callers look up.
Each call records a span ``(span_id, parent_id, name, start, end)`` in
memory; parent 0 marks a root span. A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

Span = tuple  # (span_id, parent_id, name, start, end)
AfterHook = Callable[[dict, tuple, object], None]


class Tracer:
    """Collects spans and counters for one traced job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable, after: AfterHook | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(counts, args, result)`` runs once the span has ended, so the
        counting it does is not charged to the layer.
        """
        spans, ids, local, counts = self.spans, self._ids, self._local, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers: dict[str, Iterable[str]], hooks: dict[str, AfterHook]) -> dict[str, str]:
        """Wrap every target of every layer; report each layer's coverage.

        A target is ``"package.module:Attr"`` or ``"package.module:Class.method"``.
        The report is ``"wrapped"``, ``"partial (missing ...)"`` when some
        targets no longer exist, or ``"absent"`` when none does.
        """
        coverage = {}
        for layer, targets in layers.items():
            targets = list(targets)
            missing = []
            for target in targets:
                found = _resolve(target)
                if found is None:
                    missing.append(target)
                    continue
                owner, attr = found
                own = attr in vars(owner)
                original = getattr(owner, attr)
                self._installed.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, self.wrap(layer, original, hooks.get(layer)))
            if not missing:
                coverage[layer] = "wrapped"
            elif len(missing) == len(targets):
                coverage[layer] = "absent"
            else:
                coverage[layer] = f"partial (missing {', '.join(missing)})"
        return coverage

    def uninstall(self) -> None:
        """Put every wrapped name back as it was, newest first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total duration, self time and each duration."""
        self_s = self_times(self.spans)
        out: dict[str, dict] = {}
        for _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["durations"].append(end - start)
        for name, value in self_s.items():
            out[name]["self_s"] = value
        return out


def _resolve(target: str):
    """(owner, attribute) named by ``target``, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the time child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - covered_length(children.get(span_id, ()), start, end)
    return dict(out)
