"""Acceptance suite: twelve checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Exact reproduction of the published comparison table is out of reach
at desk scale (criterion 1 explains why), so criteria 2 through 11 hold the
implementation to property-based substitutes, and criterion 12 checks the
baselines against the published numbers when the original dataset is present.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from graphfill._format import format_value
from graphfill.backends import (
    MockBackend,
    RecordingBackend,
    ReplayBackend,
    prompt_sha256,
)
from graphfill.cli import main as cli_main
from graphfill.datasets import load_bundle
from graphfill.filters import FilterConfig, filter_step, graph_spectrum
from graphfill.graphs import Graph, knn_graph
from graphfill.harness import (
    FilterPredictor,
    MessengerPredictor,
    ZeroPredictor,
    evaluate_mse,
    run_online,
)
from graphfill.messenger import parse_response
from graphfill.signals import (
    MaskSpec,
    SamplingMask,
    SignalSeries,
    generate_mask,
    observation_from_column,
    synth_bandlimited,
)

HERE = Path(__file__).parent
TOY_MANIFEST = HERE.parent / "fixtures" / "toy" / "manifest.txt"
PARSER_CORPUS = HERE / "data" / "parser_corpus.json"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {title}")
        raise
    else:
        print(f"criterion {number:02d}: PASS - {title}")


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph(n, pairs or [(0, 1)])


def leading_basis(g, bandwidth):
    """The N x F basis the filters step on: a C-contiguous copy of the first F eigenvectors."""
    return np.array(graph_spectrum(g)[1][:, :bandwidth])


def test_criterion_01_table_reproduction_scope():
    with criterion(1, "published comparison table is not desk-reproducible; "
                      "property suite substitutes"):
        # The published per-model errors depend on a live proprietary model,
        # an unpublished prompt, unspecified filter hyperparameters, and a
        # dataset not shipped here. This suite therefore checks properties
        # (criteria 2-11) plus a dataset-conditional baseline check (12).
        module_tests = [name for name in globals() if name.startswith("test_criterion_")]
        assert len(module_tests) == 12


def test_criterion_02_filter_steps_match_dense_oracle():
    with criterion(2, "glms/gsign steps equal the dense matrix oracle on 20 random graphs"):
        started = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            bandwidth = int(rng.integers(1, n + 1))
            basis = leading_basis(g, bandwidth)
            observed = rng.random(n) < 0.7
            mask = SamplingMask(observed)
            column = rng.standard_normal(n) * 5
            obs = observation_from_column(column, mask, 0)
            estimate = rng.standard_normal(n)
            mu = float(rng.uniform(0.1, 1.5))

            dense = basis @ basis.T
            err = np.where(observed, column - estimate, 0.0)
            want_glms = estimate + mu * dense @ err
            want_gsign = estimate + mu * dense @ np.sign(err)

            got_glms = filter_step("glms", estimate, obs, basis, mu)
            got_gsign = filter_step("gsign", estimate, obs, basis, mu)
            assert np.abs(got_glms - want_glms).max() <= 1e-9
            assert np.abs(got_gsign - want_gsign).max() <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_03_glms_converges_on_static_signal():
    with criterion(3, "GLMS late MSE under 10% of early MSE on a static bandlimited signal"):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        g = knn_graph(rng.random((50, 2)), 4)
        series = synth_bandlimited(g, bandwidth=10, temporal_rho=1.0, innovation_std=0.0,
                                   t_len=200, seed=11)
        mask = generate_mask(50, 0.3, seed=5)
        cfg = FilterConfig(mu=0.5, bandwidth=10)
        basis = leading_basis(g, cfg.bandwidth)
        estimate, estimates = np.zeros(50), []  # unclamped, every node scored
        for t in range(200):
            obs = observation_from_column(series.values[:, t], mask, t)
            estimate = filter_step("glms", estimate, obs, basis, cfg.mu)
            estimates.append(estimate)
        per_step = [float(np.mean((series.values[:, t] - estimates[t]) ** 2)) for t in range(200)]
        early = np.mean(per_step[:10])
        late = np.mean(per_step[-10:])
        assert late < 0.1 * early, f"late {late:.3e} vs early {early:.3e}"
        assert time.perf_counter() - started < 5.0


def test_criterion_04_gsign_update_norm_bounded():
    with criterion(4, "every G-Sign update satisfies |delta|_2 <= mu*sqrt(|S|) + 1e-9"):
        rng = np.random.default_rng(88)
        steps = 0
        while steps < 1000:
            n = int(rng.integers(3, 12))
            g = random_graph(rng, n)
            basis = leading_basis(g, int(rng.integers(1, n + 1)))
            mask = SamplingMask(rng.random(n) < rng.uniform(0.2, 0.9))
            estimate = rng.standard_normal(n) * 3
            for _ in range(25):
                column = rng.standard_normal(n) * 10
                obs = observation_from_column(column, mask, 0)
                mu = float(rng.uniform(0.01, 2.0))
                new = filter_step("gsign", estimate, obs, basis, mu)
                delta = float(np.linalg.norm(new - estimate))
                assert delta <= mu * np.sqrt(mask.num_nodes - mask.num_missing) + 1e-9
                estimate = new
                steps += 1


def test_criterion_05_mock_pipeline_beats_zero_baseline():
    with criterion(5, "mock end-to-end halves the zero baseline's missing-node MSE"):
        started = time.perf_counter()
        rng = np.random.default_rng(19)
        g = knn_graph(rng.random((50, 2)), 4)
        series = synth_bandlimited(g, bandwidth=5, temporal_rho=0.95, innovation_std=0.1,
                                   t_len=60, seed=23, units="m/s")
        spec = MaskSpec(fraction=0.3, seed=3)
        mock = run_online(MessengerPredictor(MockBackend(0.5), units="m/s", name="mock"),
                          g, series, spec, runs=5)
        zero = run_online(ZeroPredictor(), g, series, spec, runs=5)
        assert mock.mse_missing <= 0.5 * zero.mse_missing, (
            f"mock {mock.mse_missing:.4e} vs zero {zero.mse_missing:.4e}"
        )
        assert time.perf_counter() - started < 10.0


def test_criterion_06_mse_matches_brute_force_oracle():
    with criterion(6, "evaluate_mse equals the triple-loop oracle on 50 random instances"):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            t_len = int(rng.integers(1, 5))
            runs = int(rng.integers(1, 5))
            truth_vals = rng.standard_normal((n, t_len))
            estimates = [rng.standard_normal((n, t_len)) for _ in range(runs)]
            report = evaluate_mse(estimates, SignalSeries(truth_vals))
            total = 0.0
            for est in estimates:
                for i in range(n):
                    for t in range(t_len):
                        total += (truth_vals[i, t] - est[i, t]) ** 2
            assert abs(report.all_nodes - total / (runs * n * t_len)) <= 1e-12
        closed = evaluate_mse([np.array([[1.0]])] * 5, SignalSeries(np.array([[3.0]])))
        assert closed.all_nodes == 4.0


def test_criterion_07_causality_and_prompt_hygiene():
    with criterion(7, "no future truth reads and no target ground truth inside any prompt"):
        g, series, units = load_bundle(TOY_MANIFEST)
        predictor = MessengerPredictor(MockBackend(0.5), units=units, name="mock",
                                       keep_prompts=True)
        result = run_online(predictor, g, series, MaskSpec(fraction=0.3, seed=2), runs=5)
        assert len(result.access_logs) == 5
        for log in result.access_logs:
            assert log
            for limit, t in log:
                assert t <= limit, f"future read: column {t} at clock {limit}"
        checked = 0
        for run_prompts in result.prompt_logs:
            for entry in run_prompts:
                truth_here = float(series.values[entry["node"], entry["t"]])
                for rendering in (format_value(truth_here), str(truth_here), repr(truth_here)):
                    assert rendering not in entry["prompt"]
                checked += 1
        assert checked > 0


def test_criterion_08_nan_reply_triggers_history_mean_fallback(tmp_path):
    with criterion(8, "an engineered NaN reply at t=5 falls back to the mean of t=0..4"):
        g = Graph(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(17)
        series = SignalSeries(rng.uniform(5.0, 15.0, size=(3, 6)), units="m/s")
        mask = SamplingMask(np.array([True, False, True]))
        replay_path = tmp_path / "replay.jsonl"

        recorded = run_online(
            MessengerPredictor(RecordingBackend(MockBackend(0.5), replay_path),
                               units="m/s", name="mock", keep_prompts=True),
            g, series, mask, runs=1,
        )
        target = [entry for entry in recorded.prompt_logs[0] if entry["t"] == 5]
        assert len(target) == 1
        poisoned_hash = prompt_sha256(target[0]["prompt"])

        records = [json.loads(line) for line in replay_path.read_text().splitlines()]
        hit = 0
        for record in records:
            if record["prompt_sha256"] == poisoned_hash:
                record["response_text"] = "NaN"
                hit += 1
        assert hit == 1
        replay_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

        replayed = run_online(
            MessengerPredictor(ReplayBackend(replay_path), units="m/s", name="replay"),
            g, series, mask, runs=1,
        )
        stats = replayed.per_run_stats[0]
        assert stats["fallback_uses"] == 1
        assert stats["parse_failures"] == 1
        est = replayed.estimates[0]
        expected = float(np.mean(est[1, 0:5]))
        assert abs(est[1, 5] - expected) <= 1e-12


class ShortBatchBackend(MockBackend):
    """Answers every batch with one response too few, all with a decoy value."""

    def _batch_replies(self, reqs):
        return ["999.0"] * (len(reqs) - 1)


def test_criterion_09_batch_count_guard_never_realigns():
    with criterion(9, "N-1 responses to an N-request batch fail all N items, none realigned"):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        series = SignalSeries(np.full((5, 1), 7.0), units="m/s")
        mask = SamplingMask(np.array([True, False, False, False, False]))
        predictor = MessengerPredictor(ShortBatchBackend(0.5), units="m/s", batch=True,
                                       name="batched")
        result = run_online(predictor, g, series, mask, runs=1)
        stats = result.per_run_stats[0]
        assert stats["backend_failures"] == 4
        assert stats["fallback_uses"] == 4
        est = result.estimates[0]
        assert not np.any(est == 999.0), "a decoy response leaked into the estimates"
        # fallback: empty history, observed neighbor (hub) reads 7.0
        assert np.allclose(est[1:, 0], 7.0, atol=1e-12)


def test_criterion_10_parser_corpus():
    with criterion(10, "all 20 committed reply-format cases parse to their annotations"):
        cases = json.loads(PARSER_CORPUS.read_text())["cases"]
        assert len(cases) == 20
        for case in cases:
            outcome = parse_response(case["text"])
            if "value" in case:
                assert outcome.ok, f"{case['label']}: unexpected failure {outcome.failure}"
                assert outcome.value == pytest.approx(case["value"], abs=1e-12)
            else:
                assert outcome.failure == case["failure"], (
                    f"{case['label']}: got {outcome.failure or outcome.value}"
                )


def test_criterion_11_cli_runs_are_byte_identical(tmp_path):
    with criterion(11, "two identical mock CLI runs write byte-identical result JSON"):
        args = ["run", "--manifest", str(TOY_MANIFEST), "--predictor", "mock",
                "--runs", "5", "--seed", "9"]
        assert cli_main(args + ["--out", str(tmp_path / "first")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "second")]) == 0
        first = (tmp_path / "first" / "mock.json").read_bytes()
        second = (tmp_path / "second" / "mock.json").read_bytes()
        assert first == second


def test_criterion_12_baselines_on_original_dataset():
    manifest = os.environ.get("WIND_DATASET_MANIFEST")
    if not manifest:
        print("criterion 12: SKIP - original wind dataset absent "
              "(set WIND_DATASET_MANIFEST to enable)")
        pytest.skip("WIND_DATASET_MANIFEST not set")
    with criterion(12, "grid-searched baselines land within 25% of the published errors"):
        g, series, _ = load_bundle(manifest)
        assert g.num_nodes == 197 and series.num_steps == 95
        spec = MaskSpec(fraction=0.3, seed=0)
        published = {"glms": 3.396, "gsign": 3.718}
        for kind, target in published.items():
            best = None
            for mu in (0.1, 0.3, 0.5, 1.0, 1.5):
                for bandwidth in (20, 40, 59, 80):
                    cfg = FilterConfig(mu=mu, bandwidth=bandwidth)
                    result = run_online(FilterPredictor(kind, cfg), g, series, spec, runs=5)
                    if best is None or result.mse_all < best:
                        best = result.mse_all
            assert abs(best - target) <= 0.25 * target, f"{kind}: best {best:.3f} vs {target}"
