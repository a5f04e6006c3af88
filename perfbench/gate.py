"""Correctness gate: checks a job's outputs against the truth and independent oracles.

Every check returns a list of problems; an empty list passes. The checks
hold for any seed:

* observed entries of every estimate equal the truth exactly;
* the reported MSEs equal the MSEs recomputed from the estimates;
* ``fallback_uses`` equals the sum of its three causes;
* the per-step CSV holds exactly the JSON estimates and the truth;
* the MSE-curve CSV matches the curve recomputed from the estimates;
* filter estimates match a dense N x R recursion written here, and mock
  estimates match a one-step oracle of the mock predictor.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Reported and recomputed MSEs are sums in different orders.
MSE_RTOL = 1e-9
# Oracles use their own eigenbasis and summation order; scaled by max |truth|.
ORACLE_ATOL = 1e-8
CAUSES = ("parse_failures", "backend_failures", "infeasible_tasks")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_estimates(
    estimates: list[np.ndarray],
    observed: list[np.ndarray],
    truth: np.ndarray,
    mse_all: float,
    mse_missing: float,
    fallback_uses: int,
    per_run_stats: list[dict],
) -> list[str]:
    """Clamping, MSE and fallback-accounting checks on one result."""
    problems = []
    n, steps = truth.shape
    sq_all, per_run_missing = 0.0, []
    for r, (est, obs) in enumerate(zip(estimates, observed)):
        if est.shape != (n, steps):
            return [f"run {r}: estimates have shape {est.shape}, truth {truth.shape}"]
        if not np.all(np.isfinite(est)):
            problems.append(f"run {r}: non-finite estimates")
        if not np.array_equal(est[obs], truth[obs]):
            problems.append(f"run {r}: observed entries differ from the truth")
        diff2 = (truth - est) ** 2
        sq_all += float(diff2.sum())
        hidden = ~obs
        per_run_missing.append(float(diff2[hidden].sum()) / (hidden.sum() * steps) if hidden.any() else 0.0)
    want_all = sq_all / (len(estimates) * n * steps)
    want_missing = float(np.mean(per_run_missing))
    if not math.isclose(mse_all, want_all, rel_tol=MSE_RTOL):
        problems.append(f"mse_all {mse_all!r} != recomputed {want_all!r}")
    if not math.isclose(mse_missing, want_missing, rel_tol=MSE_RTOL):
        problems.append(f"mse_missing {mse_missing!r} != recomputed {want_missing!r}")
    if fallback_uses != sum(stats.get("fallback_uses", 0) for stats in per_run_stats):
        problems.append("fallback_uses is not the sum over runs")
    for r, stats in enumerate(per_run_stats):
        if stats and stats.get("fallback_uses") != sum(stats.get(cause, 0) for cause in CAUSES):
            problems.append(f"run {r}: fallback_uses {stats} is not the sum of its three causes")
    return problems


def load_result(json_path: Path) -> dict:
    """The result JSON with estimates and masks as arrays."""
    payload = json.loads(Path(json_path).read_text())
    runs = payload["runs"]
    payload["estimates"] = [np.array(run["estimates"], dtype=float) for run in runs]
    payload["observed"] = [np.array(run["mask_observed"], dtype=bool) for run in runs]
    payload["per_run_stats"] = [run["stats"] for run in runs]
    return payload


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    body = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, len(header))
    return header, body


def check_output_files(out_dir: Path, name: str, truth: np.ndarray) -> list[str]:
    """Gate the ``<name>.json``, ``<name>_per_step.csv`` and MSE-curve files of one job."""
    out_dir = Path(out_dir)
    try:
        result = load_result(out_dir / f"{name}.json")
        problems = check_estimates(
            result["estimates"], result["observed"], truth, result["mse_all"],
            result["mse_missing"], result["fallback_uses"], result["per_run_stats"],
        )
        problems += _check_per_step_csv(out_dir / f"{name}_per_step.csv", result["estimates"], truth)
        problems += _check_mse_curve(out_dir / f"{name}_mse_over_time.csv", result, truth)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output in {out_dir}: {exc!r}"]
    return problems


def _check_per_step_csv(path: Path, estimates: list[np.ndarray], truth: np.ndarray) -> list[str]:
    header, body = _read_csv(path)
    col = {key: header.index(key) for key in ("run", "t", "node", "truth", "estimate")}
    runs, n, steps = len(estimates), truth.shape[0], truth.shape[1]
    if body.shape[0] != runs * n * steps:
        return [f"{path.name}: {body.shape[0]} rows, expected {runs * n * steps}"]
    r, t, v = (body[:, col[key]].astype(int) for key in ("run", "t", "node"))
    seen = np.zeros((runs, n, steps), dtype=int)
    np.add.at(seen, (r, v, t), 1)
    if not np.all(seen == 1):
        return [f"{path.name}: (run, node, t) rows are not each present exactly once"]
    problems = []
    if not np.array_equal(body[:, col["truth"]], truth[v, t]):
        problems.append(f"{path.name}: truth column differs from the signal")
    if not np.array_equal(body[:, col["estimate"]], np.stack(estimates)[r, v, t]):
        problems.append(f"{path.name}: estimates differ from the JSON estimates")
    return problems


def _check_mse_curve(path: Path, result: dict, truth: np.ndarray) -> list[str]:
    header, body = _read_csv(path)
    all_curve = np.zeros(truth.shape[1])
    missing_curve = np.zeros(truth.shape[1])
    for est, obs in zip(result["estimates"], result["observed"]):
        diff2 = (truth - est) ** 2
        all_curve += diff2.mean(axis=0)
        if (~obs).any():
            missing_curve += diff2[~obs].mean(axis=0)
    runs = len(result["estimates"])
    want = np.column_stack([np.arange(truth.shape[1]), all_curve / runs, missing_curve / runs])
    if header != ["t", "mse_all", "mse_missing"] or body.shape != want.shape:
        return [f"{path.name}: unexpected layout"]
    if not np.allclose(body, want, rtol=MSE_RTOL, atol=0.0):
        return [f"{path.name}: curve differs from the estimates"]
    return []


def _adjacency(graph) -> np.ndarray:
    w = np.zeros((graph.num_nodes, graph.num_nodes))
    for u, v, weight in graph.edges:
        w[u, v] = w[v, u] = weight
    return w


def filter_oracle(graph, truth: np.ndarray, observed: list[np.ndarray], kind: str,
                  mu: float, bandwidth: int) -> np.ndarray:
    """Clamped estimates (R x N x T) of GLMS or G-Sign from zeros, all runs at once."""
    w = _adjacency(graph)
    _, vectors = np.linalg.eigh(np.diag(w.sum(axis=1)) - w)
    basis = vectors[:, :bandwidth]
    present = np.stack(observed).T  # N x R
    state = np.zeros(present.shape)
    out = np.empty((present.shape[1],) + truth.shape)
    for t in range(truth.shape[1]):
        column = truth[:, t : t + 1]
        err = (column - state) * present
        if kind == "gsign":
            err = np.sign(err)
        state = state + mu * (basis @ (basis.T @ err))
        out[:, :, t] = np.where(present, column, state).T
    return out


def check_filter(graph, truth: np.ndarray, estimates, observed, kind: str, mu: float,
                 bandwidth: int) -> list[str]:
    want = filter_oracle(graph, truth, observed, kind, mu, bandwidth)
    gap = float(np.max(np.abs(np.stack(estimates) - want)))
    if gap > ORACLE_ATOL * max(1.0, float(np.max(np.abs(truth)))):
        return [f"{kind} mu={mu} F={bandwidth}: estimates are {gap:.3g} away from the dense oracle"]
    return []


def check_mock(graph, truth: np.ndarray, estimates, observed, infeasible: int,
               alpha: float = 0.5) -> list[str]:
    """One-step oracle of the mock predictor in observed-plus-stale mode.

    At t = 0 a hidden node takes the mean of its observed neighbors, or the
    mean of every observed node when it has none (an infeasible task). Later
    it blends its previous estimate with the mean of all its neighbors,
    observed ones at their current values and hidden ones at their previous
    estimates.
    """
    adj = (_adjacency(graph) > 0).astype(float)
    degree = adj.sum(axis=1)
    problems, infeasible_seen = [], 0
    scale = max(1.0, float(np.max(np.abs(truth))))
    for r, (est, obs) in enumerate(zip(estimates, observed)):
        hidden = ~obs
        seen_now = adj @ obs.astype(float)
        neighbor_sum = adj @ np.where(obs, truth[:, 0], 0.0)
        first = np.where(seen_now > 0, neighbor_sum / np.maximum(seen_now, 1), truth[obs, 0].mean())
        infeasible_seen += int(np.sum(hidden & (seen_now == 0)))
        neighbors = np.where(obs[:, None], truth[:, 1:], est[:, :-1])
        later = alpha * est[:, :-1] + (1.0 - alpha) * (adj @ neighbors) / degree[:, None]
        want = np.column_stack([first, later])
        gap = float(np.max(np.abs(est[hidden] - want[hidden]))) if hidden.any() else 0.0
        if gap > ORACLE_ATOL * scale:
            problems.append(f"run {r}: mock estimates are {gap:.3g} away from the one-step oracle")
    if infeasible_seen != infeasible:
        problems.append(f"{infeasible} infeasible tasks reported, the oracle counts {infeasible_seen}")
    return problems
