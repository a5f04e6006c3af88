"""Runs one workload in a fresh process: set-up probes, timed jobs, traced jobs, the gate.

Started by ``run.py``, which generates the inputs first; the measurements go
to the JSON file named by ``--result``. Each workload is a closed loop with
one client: one job at a time, from this process's one thread.

``setup_s`` runs from the start of a job to its first step: bundle load
(manifest, CSV parse, kNN) and building the predictor, backend and
template. ``job_s`` runs from the first step to the last output file
written. For the ``graphfill.cli.main`` workloads the first step is the
call to ``graphfill.cli.run_online``, marked by a hook that untraced jobs
carry too; it records a timestamp and nothing else. Both are rescaled to a
reference host speed (see ``hostspeed``); the raw wall times are kept too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphfill.cli
from graphfill import backends, datasets, filters, harness, messenger, signals

from perfbench import gate, hostspeed
from perfbench.layers import HOOKS, TARGETS, TRANSPORT_SPAN, layer_values
from perfbench.tracing import Tracer
from perfbench.transport import CONFLICTING, SERVER_ERROR, FaultyTransport

FRACTION = 0.3
# Set-up-only probes before the jobs: at least MIN_PROBES, then more while
# they take less than PROBE_SHARE of the run, up to MAX_PROBES.
MIN_PROBES, MAX_PROBES, PROBE_SHARE = 3, 20, 0.05
FAKE_CREDENTIAL_ENV = "GRAPHFILL_BENCH_FAKE_KEY"
FAKE_ENDPOINT = "http://fake-endpoint.invalid/v1/chat/completions"
REMOTE_DELAY_S = 0.002
REMOTE_BACKOFF_BASE_S = 0.002
REMOTE_MAX_RETRIES = 3
SWEEP_GRID = [
    (kind, mu, bandwidth)
    for kind in ("glms", "gsign")
    for mu in (0.1, 0.3, 0.5, 1.0, 1.5)
    for bandwidth in (20, 40, 59, 80)
]

# Layers each workload must exercise; the traced run fails if one is silent.
COMMON_LAYERS = {
    "datasets.load_bundle", "graphs.knn_graph", "signals.observation_from_column",
    "harness.run_online", "harness.predict_missing", "harness.estimate_append",
    "harness.evaluate_mse",
}
FILTER_LAYERS = {"graphs.laplacian", "graphs.eigendecompose", "filters.step"}
MESSENGER_LAYERS = {"messenger.build_task", "messenger.render_prompt", "messenger.parse_response"}
WRITER_LAYERS = {"harness.mse_over_time", "harness.save", "harness.per_step_csv"}


class SetupDone(Exception):
    """Raised at the first step of a set-up-only probe."""


class JobError(Exception):
    """A job did not finish: non-zero exit status, or its first step never came."""


def _now() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


class Boundary:
    """Wall and CPU timestamps of a job's first step; a probe stops the job there.

    A job is split into segments where the benchmark can see it pass: between
    the sweep's grid points, between the runs of a ``graphfill run``, and
    where the writers start. One reference-kernel sample, untimed, separates
    two segments, so each segment is rescaled by the host speed measured
    right around it.
    """

    def __init__(self, probe: bool = False):
        self.probe = probe
        self.at: tuple[float, float] | None = None
        self.segments: list[tuple[float, float]] = []  # (wall, cpu) seconds
        self.kernels: list[list[float]] = []  # samples between segments

    def mark(self) -> None:
        self.at = self._resumed = _now()
        if self.probe:
            raise SetupDone

    def split(self) -> None:
        self.close()
        self.kernels.append(hostspeed.kernel_samples(1))
        self._resumed = _now()

    def close(self) -> None:
        """End the current job segment."""
        wall, cpu = _now()
        self.segments.append((wall - self._resumed[0], cpu - self._resumed[1]))


@dataclass
class Outcome:
    """What a job left behind: an output directory or in-memory results."""

    out_dir: Path | None = None
    results: list | None = None
    transport: FaultyTransport | None = None

    def discard(self) -> None:
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)


class Workload:
    """One workload: its bundle, shape, the layers it must exercise, and its job."""

    name = ""
    runs = 1
    jobs_per_run = 1  # graphfill runs made by one job
    expected_layers: set = set()

    def __init__(self, manifest: str, seed: int):
        self.manifest = manifest
        self.seed = seed
        self.boundary = Boundary()

    def job(self, out_dir: Path, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def digest(self, outcome: Outcome) -> dict:
        """Hashes that must repeat exactly from job to job."""
        return {p.name: gate.sha256_file(p) for p in sorted(outcome.out_dir.iterdir())}

    def check(self, outcome: Outcome, truth: np.ndarray, graph) -> list[str]:
        raise NotImplementedError

    def summary(self, outcome: Outcome) -> dict:
        """Values compared with the stored default-seed reference."""
        raise NotImplementedError


class PaperSweep(Workload):
    """The criterion-12 grid in-process: 40 filter jobs of 5 runs, no files."""

    name = "paper-sweep"
    runs = 5
    jobs_per_run = len(SWEEP_GRID)
    expected_layers = COMMON_LAYERS | FILTER_LAYERS

    def job(self, out_dir, tracer):
        g, series, _ = datasets.load_bundle(self.manifest)
        predictors = [
            harness.FilterPredictor(kind, filters.FilterConfig(mu=mu, bandwidth=bandwidth))
            for kind, mu, bandwidth in SWEEP_GRID
        ]
        spec = signals.MaskSpec(FRACTION, self.seed)
        self.boundary.mark()
        results = []
        for index, predictor in enumerate(predictors):
            if index:
                self.boundary.split()
            results.append(harness.run_online(predictor, g, series, spec, runs=self.runs))
        return Outcome(results=results)

    def digest(self, outcome):
        digest = hashlib.sha256()
        for result in outcome.results:
            digest.update(repr((result.mse_all, result.mse_missing)).encode())
            for est in result.estimates:
                digest.update(np.ascontiguousarray(est).tobytes())
        return {"grid": digest.hexdigest()}

    def check(self, outcome, truth, graph):
        problems = []
        for (kind, mu, bandwidth), result in zip(SWEEP_GRID, outcome.results):
            observed = [m.observed for m in result.masks]
            found = gate.check_estimates(
                result.estimates, observed, truth, result.mse_all, result.mse_missing,
                result.fallback_uses, result.per_run_stats,
            )
            problems += [f"{kind} mu={mu} F={bandwidth}: {p}" for p in found]
            problems += gate.check_filter(graph, truth, result.estimates, observed, kind, mu, bandwidth)
        return problems

    def summary(self, outcome):
        results = outcome.results
        return {
            "mse": [[r.mse_all, r.mse_missing] for r in results],
            "fallback_uses": sum(r.fallback_uses for r in results),
            "hidden_predictions": sum(
                m.num_missing * r.context["num_steps"] for r in results for m in r.masks
            ),
        }


def _file_summary(json_path: Path) -> dict:
    result = gate.load_result(json_path)
    totals: dict = {}
    for stats in result["per_run_stats"]:
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "mse_all": result["mse_all"],
        "mse_missing": result["mse_missing"],
        "fallback_uses": result["fallback_uses"],
        "stats": totals,
        "hidden_predictions": sum(int((~obs).sum()) * est.shape[1]
                                  for obs, est in zip(result["observed"], result["estimates"])),
    }


class CliWorkload(Workload):
    """``graphfill run`` through ``graphfill.cli.main``, writing JSON and CSVs."""

    predictor = ""
    expected_layers = COMMON_LAYERS | WRITER_LAYERS | {"cli.main"}

    def job(self, out_dir, tracer):
        argv = [
            "run", "--manifest", self.manifest, "--predictor", self.predictor,
            "--runs", str(self.runs), "--fraction", str(FRACTION), "--seed", str(self.seed),
            "--out", str(out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            status = graphfill.cli.main(argv)
        if status != 0:
            raise JobError(f"graphfill run exited with status {status}")
        return Outcome(out_dir=out_dir)

    def check(self, outcome, truth, graph):
        return gate.check_output_files(outcome.out_dir, self.predictor, truth)

    def summary(self, outcome):
        return _file_summary(outcome.out_dir / f"{self.predictor}.json")


class PaperMock(CliWorkload):
    """``graphfill run --predictor mock --runs 5`` on the paper-shape bundle."""

    name = "paper-mock"
    predictor = "mock"
    runs = 5
    expected_layers = CliWorkload.expected_layers | MESSENGER_LAYERS | {"backends.mock_predict"}

    def check(self, outcome, truth, graph):
        problems = super().check(outcome, truth, graph)
        result = gate.load_result(outcome.out_dir / "mock.json")
        infeasible = sum(s["infeasible_tasks"] for s in result["per_run_stats"])
        return problems + gate.check_mock(graph, truth, result["estimates"], result["observed"], infeasible)


class LargeGlms(CliWorkload):
    """``graphfill run --predictor glms --runs 3`` on the 1000 x 100 bundle."""

    name = "large-glms"
    predictor = "glms"
    runs = 3
    expected_layers = CliWorkload.expected_layers | FILTER_LAYERS

    def check(self, outcome, truth, graph):
        problems = super().check(outcome, truth, graph)
        result = gate.load_result(outcome.out_dir / "glms.json")
        cfg = filters.FilterConfig()
        return problems + gate.check_filter(
            graph, truth, result["estimates"], result["observed"], "glms", cfg.mu,
            cfg.resolve_bandwidth(graph.num_nodes),
        )


class PaperRemote(Workload):
    """The llm predictor through ``RemoteBackend`` and the fake transport, one run."""

    name = "paper-remote"
    expected_layers = (
        COMMON_LAYERS | WRITER_LAYERS | MESSENGER_LAYERS
        | {"messenger.fallback_value", "backends.complete", TRANSPORT_SPAN}
    )

    def job(self, out_dir, tracer):
        fake = FaultyTransport(delay_s=REMOTE_DELAY_S)
        cfg = backends.BackendConfig(
            kind="remote",
            endpoint=FAKE_ENDPOINT,
            credential_env=FAKE_CREDENTIAL_ENV,
            max_retries=REMOTE_MAX_RETRIES,
            backoff_base_s=REMOTE_BACKOFF_BASE_S,
        )
        transport = fake if tracer is None else tracer.wrap(TRANSPORT_SPAN, fake)
        backend = backends.make_backend(cfg, transport=transport)
        template = messenger.PromptTemplate.default()
        g, series, units = datasets.load_bundle(self.manifest)
        predictor = harness.MessengerPredictor(backend, template=template, units=units, name="llm")
        spec = signals.MaskSpec(FRACTION, self.seed)
        self.boundary.mark()
        result = harness.run_online(predictor, g, series, spec, runs=self.runs, name="llm")
        self.boundary.split()
        out_dir.mkdir(parents=True, exist_ok=True)
        result.save(out_dir / "llm.json")
        result.write_per_step_csv(out_dir / "llm_per_step.csv")
        _write_mse_curve(result, out_dir / "llm_mse_over_time.csv")
        return Outcome(out_dir=out_dir, transport=fake)

    def digest(self, outcome):
        return {**super().digest(outcome), "transport": _transport_counts(outcome.transport)}

    def check(self, outcome, truth, graph):
        problems = gate.check_output_files(outcome.out_dir, "llm", truth)
        stats = _file_summary(outcome.out_dir / "llm.json")
        causes, t = stats["stats"], outcome.transport
        requests = stats["hidden_predictions"] - causes["infeasible_tasks"]
        pairs = (
            ("backend failures", causes["backend_failures"], "prompts failed with HTTP 500",
             len(t.faulted[SERVER_ERROR])),
            ("parse failures", causes["parse_failures"], "conflicting replies sent",
             len(t.faulted[CONFLICTING])),
            ("transport calls", t.calls, "calls the injected faults imply",
             t.expected_calls(requests, REMOTE_MAX_RETRIES)),
        )
        for what, got, implied_by, want in pairs:
            if got != want:
                problems.append(f"{got} {what}, but {want} {implied_by}")
        return problems

    def summary(self, outcome):
        return {
            **_file_summary(outcome.out_dir / "llm.json"),
            "transport": _transport_counts(outcome.transport),
        }


WORKLOADS = {w.name: w for w in (PaperSweep, PaperMock, PaperRemote, LargeGlms)}


def _transport_counts(transport: FaultyTransport) -> dict:
    return {
        "calls": transport.calls,
        "status": {str(code): n for code, n in sorted(transport.status.items())},
        "peak_in_flight": transport.peak_in_flight,
    }


def _write_mse_curve(result, path: Path) -> None:
    """The MSE-curve CSV in the layout ``graphfill run`` writes."""
    steps, all_curve, missing_curve = harness.mse_over_time(result)
    lines = ["t,mse_all,mse_missing"]
    lines += [f"{int(t)},{float(a)!r},{float(m)!r}" for t, a, m in zip(steps, all_curve, missing_curve)]
    path.write_text("\n".join(lines) + "\n")


def _install_boundary(workload: Workload) -> None:
    """Mark the first step of ``graphfill.cli`` jobs at their call to run_online.

    The hook also splits the job into segments (see ``Boundary``) at the
    start of each run after the first, through the predictor's ``reset``,
    which run_online calls once per run, and where the writers start. The
    predictor is built for this one job, so its ``reset`` is wrapped on the
    instance.
    """
    run_online = graphfill.cli.run_online

    def first_step(predictor, *args, **kwargs):
        boundary = workload.boundary
        boundary.mark()
        reset, runs = predictor.reset, itertools.count()

        def split_then_reset(*reset_args, **reset_kwargs):
            if next(runs):
                boundary.split()
            return reset(*reset_args, **reset_kwargs)

        predictor.reset = split_then_reset
        result = run_online(predictor, *args, **kwargs)
        boundary.split()
        return result

    graphfill.cli.run_online = first_step


@dataclass
class Timing:
    """Wall and process CPU seconds of a job's set-up and of its segments."""

    setup_wall: float
    setup_cpu: float
    segments: list  # (wall, cpu) per job segment; empty for a probe
    kernels: list  # reference-kernel samples between segments

    @property
    def job_wall(self) -> float:
        return sum(wall for wall, _ in self.segments)


def _run_job(workload: Workload, out_dir: Path, tracer=None, probe=False):
    """One job, or a set-up-only probe; returns (Timing, outcome)."""
    boundary = workload.boundary = Boundary(probe=probe)
    start = _now()
    try:
        outcome = workload.job(out_dir, tracer)
    except SetupDone:
        outcome = None
    else:
        if boundary.at is None:
            raise JobError("the job never reached its first step")
        boundary.close()
    setup = (boundary.at[0] - start[0], boundary.at[1] - start[1])
    return Timing(*setup, boundary.segments, boundary.kernels), outcome


class HostClock:
    """Runs the reference kernel between timed intervals and rescales them."""

    def __init__(self):
        self.last = hostspeed.kernel_samples()
        self.slowdowns: list[float] = []

    def after(self, timing: Timing) -> dict:
        """Rescaled set-up and job seconds of the interval that just ended.

        Set-up and the first job segment share the samples taken before the
        set-up and after that segment; each later segment has its own.
        """
        now = hostspeed.kernel_samples()
        edges = [self.last, *timing.kernels, now]
        self.last = now
        factors = [hostspeed.slowdown(a, b) for a, b in zip(edges, edges[1:])]
        self.slowdowns += factors
        scaled = {"setup_s": hostspeed.rescale(timing.setup_wall, timing.setup_cpu, factors[0])}
        if timing.segments:
            scaled["job_s"] = sum(hostspeed.rescale(wall, cpu, factor)
                                  for (wall, cpu), factor in zip(timing.segments, factors))
        return scaled


def _check_coverage(workload: Workload, coverage: dict, summary: dict) -> list[str]:
    """A layer the workload must exercise fails when it is wrapped but recorded no call."""
    problems = []
    for layer in sorted(workload.expected_layers):
        status = coverage.get(layer, "wrapped")
        if status != "absent" and summary.get(layer, {}).get("calls", 0) == 0:
            problems.append(f"layer {layer} ({status}) recorded no calls on {workload.name}")
    return problems


def measure(workload: Workload, seconds: float, trace: bool, work: Path) -> dict:
    """Run probes and jobs for about ``seconds``; gate the first job, hash the rest.

    Untraced runs make set-up probes, then untraced jobs. Traced runs
    alternate untraced and traced jobs, at least one of each after the first,
    so the tracing overhead is measured in the same process; the first job
    pays one-time costs (first BLAS calls, first page faults) and counts on
    neither side. Peak memory is read right
    after the first job, before its outputs are gated; every later job's
    outputs must hash the same as the first job's. Every probe and job is
    bracketed by reference-kernel runs; ``setup_s``, ``job_s`` and
    ``traced_job_s`` are rescaled to nominal host speed, ``*_wall_s`` are raw.
    """
    _install_boundary(workload)
    out = {"setup_s": [], "job_s": [], "traced_job_s": [], "setup_wall_s": [], "job_wall_s": [],
           "layers": [], "coverage": {}, "problems": [], "attempted": 0, "failed": 0,
           "spans": [], "calls": {}}
    start = time.perf_counter()
    clock = HostClock()
    probes = out["setup_s"]
    while not trace and len(probes) < MAX_PROBES and (
        len(probes) < MIN_PROBES or time.perf_counter() - start < PROBE_SHARE * seconds
    ):
        timing, _ = _run_job(workload, work / "probe", probe=True)
        probes.append(clock.after(timing)["setup_s"])
        out["setup_wall_s"].append(timing.setup_wall)
    iterations = []  # wall time of each job with its hashing and gating

    while True:
        began = time.perf_counter()
        index = out["attempted"]
        out["attempted"] += 1
        tracer = Tracer() if trace and index % 2 == 1 else None
        if tracer is not None:
            out["coverage"] = tracer.install(TARGETS, HOOKS)
        try:
            timing, outcome = _run_job(workload, work / f"job{index}", tracer)
        except (JobError, OSError, ValueError, ArithmeticError, RuntimeError) as exc:
            out["problems"].append(f"job {index}: {exc!r}")
            break
        finally:
            if tracer is not None:
                tracer.uninstall()
        scaled = clock.after(timing)
        if index == 0:
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["digest"] = workload.digest(outcome)
            out["summary"] = workload.summary(outcome)
            loaded = datasets.load_bundle(workload.manifest)
            truth = loaded.series.values
            out["problems"] += [f"job 0: {p}" for p in workload.check(outcome, truth, loaded.graph)]
            out["node_steps"] = workload.runs * truth.size * workload.jobs_per_run
        else:
            digest = workload.digest(outcome)
            if digest != out["digest"]:
                out["problems"].append(f"job {index}: outputs differ from job 0: {digest} vs {out['digest']}")
        transport = outcome.transport
        outcome.discard()
        del outcome  # release this job's results before the next job runs
        if out["problems"]:
            break
        if tracer is not None:
            summary = tracer.summary()
            out["problems"] += _check_coverage(workload, out["coverage"], summary)
            out["layers"].append(layer_values(summary, tracer.counts, timing.job_wall, transport))
            out["traced_job_s"].append(scaled["job_s"])
            out["spans"] = tracer.spans
            out["calls"] = {layer: summary.get(layer, {}).get("calls", 0)
                            for layer in [*TARGETS, TRANSPORT_SPAN]}
        elif not trace or index > 0:  # a traced run's first job is its warm-up
            out["setup_s"].append(scaled["setup_s"])
            out["job_s"].append(scaled["job_s"])
            out["setup_wall_s"].append(timing.setup_wall)
            out["job_wall_s"].append(timing.job_wall)

        now = time.perf_counter()
        iterations.append(now - began)
        if trace and index < 2:
            continue
        # Start another job only if it should end within the budget; the
        # first iteration also gated its outputs, so later ones estimate better.
        if now - start + statistics.mean(iterations[1:] or iterations) > seconds:
            break

    if out["problems"]:
        out["failed"] = out["attempted"]
    out["slowdown"] = clock.slowdowns
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for job outputs")
    parser.add_argument("--result", required=True, help="JSON file the measurements go to")
    args = parser.parse_args(argv)

    # The remote backend reads its credential from the environment; this
    # dummy one exists only in this process.
    os.environ[FAKE_CREDENTIAL_ENV] = "fake-benchmark-credential"
    workload = WORKLOADS[args.workload](args.manifest, args.seed)
    out = measure(workload, args.seconds, bool(args.trace), Path(args.work))
    # Every span of this run shares this id.
    out["trace_id"] = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
