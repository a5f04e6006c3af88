"""What the traced run measures in graphfill, and what each layer metric should move.

``TARGETS`` maps a layer (span name) to the names its callers look up, so
the wrappers sit where calls actually go: ``graphfill.harness.build_task``,
not ``graphfill.messenger.build_task``. ``glms_step`` and ``gsign_step`` are
wrapped before a ``FilterPredictor`` is built, since it binds its step
function at construction.

``LAYER_METRICS`` lists every per-layer metric with its unit, direction, the
end-to-end metric a change to it should move, and the workload where that
shows. BENCHMARK.json repeats the names, units and directions.
"""

from __future__ import annotations

import os
import statistics
from typing import NamedTuple

TARGETS = {
    "cli.main": ["graphfill.cli:main"],
    "datasets.load_bundle": ["graphfill.cli:load_bundle", "graphfill.datasets:load_bundle"],
    "graphs.knn_graph": ["graphfill.datasets:knn_graph"],
    "graphs.laplacian": ["graphfill.filters:laplacian"],
    "graphs.eigendecompose": ["graphfill.filters:eigendecompose"],
    "signals.observation_from_column": ["graphfill.harness:observation_from_column"],
    "filters.step": ["graphfill.harness:glms_step", "graphfill.harness:gsign_step"],
    "messenger.build_task": ["graphfill.harness:build_task"],
    "messenger.render_prompt": ["graphfill.harness:render_prompt"],
    "messenger.parse_response": ["graphfill.harness:parse_response"],
    "messenger.fallback_value": ["graphfill.harness:fallback_value"],
    "backends.mock_predict": ["graphfill.backends:mock_predict"],
    "backends.complete": ["graphfill.backends:RemoteBackend.complete"],
    "harness.run_online": ["graphfill.cli:run_online", "graphfill.harness:run_online"],
    "harness.predict_missing": [
        "graphfill.harness:FilterPredictor.predict_missing",
        "graphfill.harness:MessengerPredictor.predict_missing",
    ],
    "harness.estimate_append": ["graphfill.harness:EstimateState.append"],
    "harness.evaluate_mse": ["graphfill.harness:evaluate_mse"],
    "harness.mse_over_time": ["graphfill.cli:mse_over_time", "graphfill.harness:mse_over_time"],
    "harness.save": ["graphfill.harness:RunResult.save"],
    "harness.per_step_csv": ["graphfill.harness:RunResult.write_per_step_csv"],
}

# The benchmark's own fake transport is wrapped directly, not looked up.
TRANSPORT_SPAN = "backends.transport_wait"

PARSE_FAILURE_REASONS = ("non-numeric", "nan-literal", "empty", "multiple-conflicting")
HTTP_STATUSES = (200, 429, 500)


def _count_prompt_chars(counts, args, result):
    counts["messenger.prompt_chars"] += len(result)


def _count_parse_failure(counts, args, result):
    if result.failure is not None:
        counts[f"messenger.parse_failures.{result.failure}"] += 1


def _count_json(counts, args, result):
    run_result, path = args[0], args[1]
    counts["harness.json_bytes"] += os.path.getsize(path)
    counts["harness.prompt_log_chars"] += sum(
        len(entry["prompt"]) for log in run_result.prompt_logs for entry in log
    )


def _count_csv(counts, args, result):
    counts["harness.csv_bytes"] += os.path.getsize(args[1])


HOOKS = {
    "messenger.render_prompt": _count_prompt_chars,
    "messenger.parse_response": _count_parse_failure,
    "harness.save": _count_json,
    "harness.per_step_csv": _count_csv,
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


def _m(name, unit, moves, on, better="lower"):
    return LayerMetric(name, unit, better, moves, on)


LAYER_METRICS = (
    _m("datasets.load_bundle_s", "s", "setup_s", "large-glms"),
    _m("graphs.knn_graph_s", "s", "setup_s", "large-glms (flat on the 197-node workloads)"),
    _m("graphs.laplacian_s", "s", "job_s", "paper-sweep, large-glms; no change on paper-mock"),
    _m("graphs.eigendecompose_s", "s", "job_s", "paper-sweep, large-glms; no change on paper-mock"),
    _m("graphs.eigendecompose_calls", "count", "job_s", "paper-sweep (200), large-glms (3); 0 on paper-mock"),
    _m("signals.observation_from_column_s", "s", "job_s", "paper-sweep"),
    _m("signals.observation_from_column_calls", "count", "job_s", "paper-sweep"),
    _m("filters.step_s", "s", "job_s", "paper-sweep; not exercised on paper-mock and paper-remote"),
    _m("filters.step_calls", "count", "job_s", "paper-sweep; not exercised on paper-mock and paper-remote"),
    _m("messenger.build_task_s", "s", "job_s", "paper-mock"),
    _m("messenger.tasks", "count", "job_s", "paper-mock (28,025)"),
    _m("messenger.render_prompt_s", "s", "job_s", "paper-mock"),
    _m("messenger.prompt_chars", "count", "job_s, peak_rss_mb", "paper-mock"),
    _m("messenger.parse_response_s", "s", "job_s, answered_share", "paper-mock, paper-remote"),
    *(
        _m(f"messenger.parse_failures.{reason}", "count", "answered_share", "paper-remote")
        for reason in PARSE_FAILURE_REASONS
    ),
    _m("messenger.fallback_value_s", "s", "answered_share", "paper-remote"),
    _m("messenger.fallback_calls", "count", "answered_share", "paper-remote"),
    _m("backends.mock_predict_s", "s", "job_s", "paper-mock"),
    _m("backends.requests", "count", "job_s", "paper-remote"),
    _m("backends.complete_s", "s", "job_s", "paper-remote"),
    _m("backends.request_ms.p50", "ms", "job_s", "paper-remote"),
    _m("backends.request_ms.p99", "ms", "job_s", "paper-remote"),
    _m("backends.transport_calls", "count", "job_s, answered_share", "paper-remote"),
    _m("backends.retries", "count", "job_s, answered_share", "paper-remote"),
    *(
        _m(f"backends.status.{code}", "count", "job_s, answered_share", "paper-remote",
           better="higher" if code == 200 else "lower")
        for code in HTTP_STATUSES
    ),
    _m("backends.transport_wait_s", "s", "job_s", "paper-remote"),
    _m("backends.busy_share", "ratio", "job_s", "paper-remote; a fan-out raises it", better="higher"),
    _m("backends.max_in_flight_observed", "count", "job_s",
       "paper-remote (1 today); a fan-out raises it, no change on paper-mock", better="higher"),
    _m("harness.run_online_s", "s", "job_s", "paper-sweep"),
    _m("harness.predict_missing_s", "s", "job_s", "paper-sweep"),
    _m("harness.estimate_append_s", "s", "job_s", "paper-sweep"),
    _m("harness.evaluate_mse_s", "s", "job_s", "paper-sweep"),
    _m("harness.mse_over_time_s", "s", "job_s", "paper-mock, large-glms"),
    _m("harness.save_s", "s", "job_s, peak_rss_mb", "large-glms, paper-mock"),
    _m("harness.json_bytes", "bytes", "job_s, peak_rss_mb", "large-glms, paper-mock"),
    _m("harness.per_step_csv_s", "s", "job_s, peak_rss_mb", "large-glms, paper-mock"),
    _m("harness.csv_bytes", "bytes", "job_s, peak_rss_mb", "large-glms, paper-mock"),
    _m("harness.prompt_log_chars", "count", "job_s, peak_rss_mb", "paper-mock"),
    _m("cli.main_s", "s", "job_s", "paper-mock, large-glms (self time includes the MSE-curve writer)"),
    _m("trace.job_s_untraced", "s", "job_s", "every workload: job_s with no wrappers installed"),
    _m("trace.job_s_traced", "s", "job_s", "every workload: job_s with every wrapper installed"),
    _m("trace.overhead_share", "ratio", "none", "every workload: traced / untraced job_s - 1"),
)

COUNTED_SPANS = {
    "graphs.eigendecompose_calls": "graphs.eigendecompose",
    "signals.observation_from_column_calls": "signals.observation_from_column",
    "filters.step_calls": "filters.step",
    "messenger.tasks": "messenger.build_task",
    "messenger.fallback_calls": "messenger.fallback_value",
    "backends.requests": "backends.complete",
    "backends.transport_calls": TRANSPORT_SPAN,
}
HOOK_COUNTERS = (
    "messenger.prompt_chars",
    *(f"messenger.parse_failures.{reason}" for reason in PARSE_FAILURE_REASONS),
    "harness.json_bytes",
    "harness.csv_bytes",
    "harness.prompt_log_chars",
)


def _percentile_ms(durations: list, q: int) -> float:
    if len(durations) < 2:
        return sum(durations) * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_values(summary: dict, counts: dict, job_s: float, transport=None) -> dict[str, float]:
    """Every per-layer metric but ``trace.*`` for one traced job.

    ``summary`` is ``Tracer.summary()``. A layer that recorded no span reads
    0 here; the coverage check decides whether that was expected.
    """
    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    values = {f"{layer}_s": self_s(layer) for layer in TARGETS}
    values["backends.transport_wait_s"] = self_s(TRANSPORT_SPAN)
    values.update((name, calls(span)) for name, span in COUNTED_SPANS.items())
    values.update((name, counts.get(name, 0)) for name in HOOK_COUNTERS)
    requests = summary.get("backends.complete", {}).get("durations", [])
    values["backends.request_ms.p50"] = _percentile_ms(requests, 50)
    values["backends.request_ms.p99"] = _percentile_ms(requests, 99)
    values["backends.retries"] = values["backends.transport_calls"] - values["backends.requests"]
    values["backends.busy_share"] = values["backends.transport_wait_s"] / job_s
    for code in HTTP_STATUSES:
        values[f"backends.status.{code}"] = transport.status.get(code, 0) if transport else 0
    values["backends.max_in_flight_observed"] = transport.peak_in_flight if transport else 0
    return values
