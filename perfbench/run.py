"""graphfill benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload paper-mock --seed 3 --seconds 10 --trace 0

For each workload this script generates the seeded inputs (untimed), then
runs the workload in a fresh worker process that measures for ``--seconds``
and gates every job's outputs. It prints each metric by name with its unit
and sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
its overhead against untraced jobs. A traced run also writes its spans to
``.perfbench_work/traces/``. ``setup_s`` and ``job_s`` are rescaled to a
nominal host speed measured by a reference kernel around every job (see
``perfbench/hostspeed.py``); the raw wall-time medians are printed beside them.

Workloads (one client, one job at a time):

    paper-sweep   the criterion-12 GLMS/G-Sign grid in-process, 197 x 95, 40 jobs x 5 runs
    paper-mock    graphfill run --predictor mock --runs 5 on 197 x 95
    paper-remote  the llm predictor through RemoteBackend and a fake 2 ms transport
                  with injected faults, 197 x 95, 1 run
    large-glms    graphfill run --predictor glms --runs 3 on 1000 x 100

Exit status: 0 when every job passed the gate, 1 when a check failed, 2 when
the benchmark could not run (for example, no graphfill sources).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
WORKER_TIMEOUT_S = 170.0
# One BLAS thread: steadier timings on a shared machine and bit-identical
# results from run to run. The harness loop itself is single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Floating-point results compared with the reference may differ in the last
# digits where a BLAS kernel sums in another order.
REFERENCE_RTOL = 1e-9

BUNDLES = {"paper-sweep": "paper", "paper-mock": "paper", "paper-remote": "paper", "large-glms": "large"}
UNITS = {"setup_s": "s", "job_s": "s", "node_steps_per_s": "1/s", "peak_rss_mb": "MB",
         "answered_share": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _median(values):
    return statistics.median(values) if values else None


def _compare(reference, measured, path="") -> list[str]:
    """Differences between a stored reference and a measured summary."""
    if isinstance(reference, dict) and isinstance(measured, dict):
        problems = []
        for key in sorted(set(reference) | set(measured)):
            if key not in reference or key not in measured:
                problems.append(f"{path}{key}: present on one side only")
            else:
                problems += _compare(reference[key], measured[key], f"{path}{key}.")
        return problems
    if isinstance(reference, list) and isinstance(measured, list) and len(reference) == len(measured):
        return [p for i, (a, b) in enumerate(zip(reference, measured)) for p in _compare(a, b, f"{path}{i}.")]
    if isinstance(reference, float) and isinstance(measured, float):
        ok = math.isclose(reference, measured, rel_tol=REFERENCE_RTOL)
    else:
        ok = reference == measured
    return [] if ok else [f"{path.rstrip('.')}: reference {reference!r}, measured {measured!r}"]


def check_reference(name: str, seed: int, inputs: dict, summary: dict) -> tuple[str, list[str]]:
    """Compare with the stored default-seed values when the inputs are the same bits."""
    if seed != DEFAULT_SEED:
        return f"not applicable (seed {seed}; stored for seed {DEFAULT_SEED})", []
    stored = json.loads(REFERENCE.read_text())[name]
    want = {k: stored["inputs"][k] for k in ("graph_sha256", "signal_sha256")}
    have = {k: inputs[k] for k in want}
    if want != have:
        return "not applicable (generated inputs differ in bits from the stored ones)", []
    problems = _compare(stored["summary"], summary)
    return ("matched" if not problems else "MISMATCH"), problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Generate inputs, run the worker, and turn its samples into metrics."""
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # Importable once main() has put the repository on sys.path.
        from perfbench.inputs import write_bundle

        inputs = write_bundle(work / "bundle", BUNDLES[name], seed)
        result_path = work / "result.json"
        cmd = [
            sys.executable, "-m", "perfbench.worker", "--workload", name,
            "--manifest", inputs["manifest"], "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--work", str(work / "jobs"), "--result", str(result_path),
        ]
        env = {**os.environ, **THREAD_ENV, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker ran past the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if status != 0:
            raise BenchError(f"{name}: worker exited with status {status}")
        raw = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, trace, inputs, raw)


def summarize(name: str, seed: int, trace: bool, inputs: dict, raw: dict) -> dict:
    lines = [f"{name}: inputs {inputs['shape']} graph_sha256={inputs['graph_sha256']} "
             f"signal_sha256={inputs['signal_sha256']}"]
    problems = list(raw["problems"])
    if "summary" in raw:
        status, mismatches = check_reference(name, seed, inputs, raw["summary"])
        problems += mismatches
        lines.append(f"{name}: reference check {status}")
        for file_name, digest in sorted(raw["digest"].items()):
            lines.append(f"{name}: output {file_name} {digest if isinstance(digest, str) else json.dumps(digest)}")
    failed = raw["attempted"] if problems else raw["failed"]
    lines += [f"{name}: FAILED {p}" for p in problems]
    lines.append(f"{name}: {raw['attempted']} jobs attempted, {failed} failed")

    metrics: dict = {}
    if not problems:
        metrics = trace_metrics(name, raw, lines) if trace else end_to_end_metrics(name, raw, lines)
    return {"name": name, "attempted": raw["attempted"], "failed": failed,
            "correct": not problems, "metrics": metrics, "lines": lines,
            "spans": raw["spans"], "trace_id": raw["trace_id"], "coverage": raw["coverage"]}


def end_to_end_metrics(name: str, raw: dict, lines: list) -> dict:
    job_s = _median(raw["job_s"])
    summary = raw["summary"]
    values = {
        "setup_s": (_median(raw["setup_s"]), len(raw["setup_s"])),
        "job_s": (job_s, len(raw["job_s"])),
        "node_steps_per_s": (raw["node_steps"] / job_s, len(raw["job_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "answered_share": (1.0 - summary["fallback_uses"] / summary["hidden_predictions"], 1),
    }
    for metric, (value, count) in values.items():
        lines.append(f"{name}: {metric} = {value:.6g} {UNITS[metric]} (median of {count})"
                     if count > 1 else f"{name}: {metric} = {value:.6g} {UNITS[metric]} ({count} sample)")
    lines.append(f"{name}: setup_s and job_s are rescaled to nominal host speed; raw wall medians "
                 f"setup {_median(raw['setup_wall_s']):.6g} s, job {_median(raw['job_wall_s']):.6g} s; "
                 f"host slowdown median {_median(raw['slowdown']):.3g} "
                 f"(range {min(raw['slowdown']):.3g}-{max(raw['slowdown']):.3g})")
    fallbacks, hidden = summary["fallback_uses"], summary["hidden_predictions"]
    lines.append(f"{name}: fallback_share = {fallbacks / hidden:.6g} ratio "
                 f"({fallbacks} fallbacks in {hidden} hidden-node predictions)")
    return {metric: {"value": value, "unit": UNITS[metric]} for metric, (value, _) in values.items()}


def trace_metrics(name: str, raw: dict, lines: list) -> dict:
    from perfbench.layers import LAYER_METRICS

    untraced, traced = _median(raw["job_s"]), _median(raw["traced_job_s"])
    values = {key: _median([job[key] for job in raw["layers"]]) for key in raw["layers"][0]}
    values["trace.job_s_untraced"] = untraced
    values["trace.job_s_traced"] = traced
    values["trace.overhead_share"] = traced / untraced - 1.0
    for layer, calls in raw["calls"].items():
        status = raw["coverage"].get(layer, "wrapped")
        if status == "absent":
            lines.append(f"{name}: layer {layer} is absent: no wrap target exists; its metrics read 0")
        else:
            note = f"{calls} calls" if calls else "not exercised on this workload; its metrics read 0"
            lines.append(f"{name}: layer {layer} {status}, {note}")
    samples = len(raw["layers"])
    for m in LAYER_METRICS:
        lines.append(f"{name}: {m.name} = {values[m.name]:.6g} {m.unit} "
                     f"(median of {samples} traced jobs; moves {m.moves} on {m.on})")
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in LAYER_METRICS}


def write_trace(result: dict, seed: int) -> Path:
    """Spans of the last traced job: one trace id, ``[id, parent, name, start, end]`` each."""
    path = WORK / "traces" / f"{result['name']}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"trace_id": result["trace_id"], "coverage": result["coverage"],
               "span_fields": ["span_id", "parent_id", "name", "start_s", "end_s"],
               "spans": result["spans"]}
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *BUNDLES])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "graphfill" / "__init__.py").is_file():
        print(f"error: graphfill sources not found under {SRC}", file=sys.stderr)
        return 2
    for key, value in THREAD_ENV.items():
        os.environ[key] = value
    sys.path[:0] = [str(SRC), str(ROOT)]

    names = list(BUNDLES) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + WORKER_TIMEOUT_S * len(names)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            if args.trace and result["spans"]:
                result["lines"].append(f"{name}: spans written to {write_trace(result, args.seed)}")
            results.append(result)
            print("\n".join(result["lines"]), flush=True)
    except (BenchError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
