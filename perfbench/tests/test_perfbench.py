"""The benchmark's own pieces at tiny shapes: fault schedule, self time, gate, layer table."""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from graphfill import (  # noqa: E402
    SignalSeries, cli, knn_graph, load_bundle, parse_response, synth_bandlimited, write_coordinates,
    write_signal_csv,
)
from perfbench import gate, hostspeed  # noqa: E402
from perfbench.layers import LAYER_METRICS, TARGETS, layer_values  # noqa: E402
from perfbench.tracing import Tracer, covered_length, self_times  # noqa: E402
from perfbench.transport import (  # noqa: E402
    CONFLICTING, RATE_LIMITED, SERVER_ERROR, FaultyTransport, fault_for, reply_value,
)


def _prompts(count):
    return [f"Station {i} has no reading for time step {i % 7}.\n- station {i + 1}: {i / 3!r} (x)"
            for i in range(count)]


def _post_until_done(transport, prompt, max_retries=3):
    """Statuses one request sees, retrying 429 and 500 like RemoteBackend."""
    statuses = []
    for _ in range(max_retries + 1):
        status, _ = transport("url", {}, {"messages": [{"role": "user", "content": prompt}]}, 1.0)
        statuses.append(status)
        if status == 200:
            break
    return statuses


def test_fault_schedule_is_order_independent():
    prompts = _prompts(600)
    shuffled = prompts[:]
    random.Random(3).shuffle(shuffled)
    in_order, reordered = FaultyTransport(sleep=lambda s: None), FaultyTransport(sleep=lambda s: None)
    seen_in_order = {p: _post_until_done(in_order, p) for p in prompts}
    seen_reordered = {p: _post_until_done(reordered, p) for p in shuffled}
    assert seen_in_order == seen_reordered
    assert in_order.status == reordered.status
    assert in_order.faulted == reordered.faulted
    assert in_order.calls == in_order.expected_calls(len(prompts), max_retries=3)
    for prompt, statuses in seen_in_order.items():
        fault = fault_for(prompt)
        want = {RATE_LIMITED: [429, 200], SERVER_ERROR: [500] * 4}.get(fault, [200])
        assert statuses == want


def test_fault_shares_are_near_their_targets():
    faults = [fault_for(p) for p in _prompts(20000)]
    assert 0.015 < faults.count(RATE_LIMITED) / len(faults) < 0.025
    assert 0.007 < faults.count(SERVER_ERROR) / len(faults) < 0.013
    assert 0.007 < faults.count(CONFLICTING) / len(faults) < 0.013


def test_sleep_overshoot_is_carried_into_the_next_call(monkeypatch):
    clock = [0.0]

    def late_sleep(seconds):  # every sleep overshoots by 0.5 ms
        clock[0] += seconds + 0.0005

    monkeypatch.setattr("perfbench.transport.time.perf_counter", lambda: clock[0])
    transport = FaultyTransport(delay_s=0.002, sleep=late_sleep)
    for prompt in _prompts(10):
        transport("url", {}, {"messages": [{"role": "user", "content": prompt}]}, 1.0)
    assert clock[0] == pytest.approx(10 * 0.002 + 0.0005)


def test_only_conflicting_replies_fail_to_parse():
    transport = FaultyTransport(sleep=lambda s: None)
    for prompt in _prompts(300):
        status, body = transport("url", {}, {"messages": [{"content": prompt}]}, 1.0)
        if status != 200:
            continue
        parsed = parse_response(body["choices"][0]["message"]["content"])
        if fault_for(prompt) == CONFLICTING:
            assert parsed.failure == "multiple-conflicting"
        else:
            assert parsed.value == pytest.approx(reply_value(prompt))


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        (1, 0, "parent", 0.0, 10.0),
        (2, 1, "child", 1.0, 3.0),
        (3, 1, "child", 2.0, 5.0),  # overlaps the first child
        (4, 1, "child", 8.0, 12.0),  # runs past the parent's end
        (5, 2, "grandchild", 1.5, 2.5),
    ]
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    times = self_times(spans)
    assert times["parent"] == pytest.approx(10.0 - 6.0)
    assert times["child"] == pytest.approx((2.0 - 1.0) + 3.0 + 4.0)
    assert times["grandchild"] == pytest.approx(1.0)


def test_rescale_divides_busy_time_and_keeps_waiting():
    nominal = [hostspeed.NOMINAL_S] * hostspeed.SAMPLES
    assert hostspeed.slowdown(nominal, nominal) == pytest.approx(1.0)
    slow = [2 * hostspeed.NOMINAL_S] * hostspeed.SAMPLES
    assert hostspeed.slowdown(nominal, slow + slow) == pytest.approx(2.0)
    assert hostspeed.rescale(3.0, 3.0, 1.5) == pytest.approx(2.0)  # all busy
    assert hostspeed.rescale(10.0, 1.0, 2.0) == pytest.approx(9.5)  # mostly waiting
    assert hostspeed.rescale(1.0, 1.2, 2.0) == pytest.approx(0.5)  # CPU time past wall time
    assert hostspeed.rescale(2.0, 2.0, 1.0) == 2.0
    assert len(hostspeed.kernel_samples(2)) == 2


def test_tracer_nests_spans_and_restores_wrapped_names():
    import graphfill.harness as harness

    original = harness.evaluate_mse
    tracer = Tracer()
    coverage = tracer.install(
        {"harness.evaluate_mse": ["graphfill.harness:evaluate_mse"],
         "gone": ["graphfill.harness:no_such_function"],
         "half": ["graphfill.harness:mse_over_time", "graphfill.harness:no_such_function"]},
        {},
    )
    try:
        assert coverage["harness.evaluate_mse"] == "wrapped"
        assert coverage["gone"] == "absent"
        assert coverage["half"].startswith("partial")
        truth = SignalSeries(values=np.zeros((1, 1)))
        outer = tracer.wrap("outer", lambda: harness.evaluate_mse([np.zeros((1, 1))], truth))
        outer()
    finally:
        tracer.uninstall()
    assert harness.evaluate_mse is original
    (inner_id, inner_parent, inner_name, *_), (outer_id, outer_parent, outer_name, *_) = tracer.spans
    assert (inner_name, outer_name) == ("harness.evaluate_mse", "outer")
    assert inner_parent == outer_id and outer_parent == 0


def _tiny_bundle(tmp_path, nodes=12, steps=6, seed=4):
    coords = np.random.default_rng(seed).random((nodes, 2))
    graph = knn_graph(coords, 3, weight_mode="gaussian")
    series = synth_bandlimited(graph, 4, 0.95, 0.1, steps, seed + 1)
    write_coordinates(coords, tmp_path / "stations.csv")
    write_signal_csv(series, tmp_path / "signal.csv")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("signal = signal.csv\ncoordinates = stations.csv\nknn_k = 3\nknn_weights = gaussian\n")
    return manifest


@pytest.mark.parametrize("predictor", ["mock", "glms"])
def test_gate_accepts_real_outputs_and_rejects_tampered_ones(tmp_path, predictor):
    manifest = _tiny_bundle(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--manifest", str(manifest), "--predictor", predictor, "--runs", "2",
                     "--bandwidth", "4", "--out", str(out)]) == 0
    graph, series, _ = load_bundle(manifest)
    truth = series.values
    result = gate.load_result(out / f"{predictor}.json")
    assert gate.check_output_files(out, predictor, truth) == []
    if predictor == "mock":
        infeasible = sum(s["infeasible_tasks"] for s in result["per_run_stats"])
        assert gate.check_mock(graph, truth, result["estimates"], result["observed"], infeasible) == []
        assert gate.check_mock(graph, truth, result["estimates"], result["observed"], infeasible + 1) != []
    else:
        assert gate.check_filter(graph, truth, result["estimates"], result["observed"], "glms", 0.5, 4) == []
        assert gate.check_filter(graph, truth, result["estimates"], result["observed"], "glms", 0.4, 4) != []

    csv_path = out / f"{predictor}_per_step.csv"
    lines = csv_path.read_text().splitlines()
    run, t, node, truth_cell, estimate = lines[7].split(",")
    lines[7] = ",".join([run, t, node, truth_cell, repr(float(estimate) + 1e-9)])
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("per_step" in p for p in gate.check_output_files(out, predictor, truth))


def test_gate_rejects_unclamped_estimates_and_bad_fallback_sums(tmp_path):
    manifest = _tiny_bundle(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--manifest", str(manifest), "--predictor", "mock", "--runs", "1",
                     "--out", str(out)]) == 0
    truth = load_bundle(manifest).series.values
    payload = json.loads((out / "mock.json").read_text())
    observed_node = payload["runs"][0]["mask_observed"].index(1)
    payload["runs"][0]["estimates"][observed_node][2] += 0.5
    payload["runs"][0]["stats"]["fallback_uses"] += 1
    (out / "mock.json").write_text(json.dumps(payload))
    problems = gate.check_output_files(out, "mock", truth)
    assert any("observed entries" in p for p in problems)
    assert any("three causes" in p for p in problems)


def test_layer_table_matches_benchmark_json_and_layer_values():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    values = layer_values({}, {}, job_s=1.0)
    assert set(values) == {m.name for m in LAYER_METRICS if not m.name.startswith("trace.")}
    assert {f"{layer}_s" for layer in TARGETS} <= set(values)
