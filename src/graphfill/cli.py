"""Command line front end.

Subcommands:

    synth          write a synthetic bundle (graph + smooth signal + manifest)
    mask           write a sampling-mask file
    run            execute the online loop on a bundle and save the results
    compare        merge saved results into one ranked table
    replay-record  run against the live endpoint while capturing a replay file

Exit codes: 0 success, 1 usage error, 2 runtime error. With the mock or
replay backend, identical arguments and inputs produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backends import (
    BACKEND_KINDS,
    BackendConfig,
    BackendError,
    RecordingBackend,
    make_backend,
)
from .datasets import DatasetError, load_bundle, save_bundle
from .filters import FILTER_KINDS, FilterConfig, default_bandwidth
from .graphs import knn_graph
from .harness import (
    FilterPredictor,
    MessengerPredictor,
    RunResult,
    ZeroPredictor,
    compare,
    mse_over_time,
    run_online,
)
from .messenger import NEIGHBOR_MODES, PromptTemplate, TemplateError
from .signals import MaskSpec, generate_mask, read_mask_file, synth_bandlimited, write_mask_file

__all__ = ["main", "entrypoint", "UsageError"]

PREDICTOR_KINDS = (*FILTER_KINDS, "llm", "mock", "zero")


class UsageError(Exception):
    """Bad arguments; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so main owns the codes."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def _fraction_arg(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1), got {raw}")
    return value


def _add_backend_options(p: _Parser) -> None:
    p.add_argument("--backend", choices=BACKEND_KINDS, default="mock",
                   help="completion backend for the llm predictor (default mock)")
    p.add_argument("--model", default="gpt-3.5-turbo", help="model name sent to the endpoint")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=_positive_int, default=16)
    p.add_argument("--endpoint", default=None, help="chat-completions URL for the remote backend")
    p.add_argument("--credential-env", default="OPENAI_API_KEY",
                   help="environment variable holding the API key (default OPENAI_API_KEY)")
    p.add_argument("--template", default=None, help="prompt template file (default: built-in)")
    p.add_argument("--neighbor-mode", choices=NEIGHBOR_MODES, default="observed-plus-stale")
    p.add_argument("--mock-alpha", type=float, default=0.5,
                   help="mock backend blend between previous estimate and neighbor mean")
    p.add_argument("--replay-file", default=None, help="replay JSONL for the replay backend")
    p.add_argument("--batch", action="store_true",
                   help="send each step's node tasks as one batched request")


def _add_run_options(p: _Parser) -> None:
    p.add_argument("--manifest", required=True, help="dataset manifest to load")
    p.add_argument("--predictor", choices=PREDICTOR_KINDS, default="mock")
    p.add_argument("--mu", type=float, default=0.5, help="filter step size")
    p.add_argument("--bandwidth", type=_positive_int, default=None,
                   help="spectral bandwidth F (default: round(0.3 N))")
    p.add_argument("--fraction", type=_fraction_arg, default=0.3,
                   help="fraction of nodes hidden per run (default 0.3)")
    p.add_argument("--runs", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-mask", action="store_true",
                   help="reuse one sampled mask for every run instead of resampling")
    p.add_argument("--mask-file", default=None,
                   help="explicit mask file; overrides --fraction/--seed sampling")
    p.add_argument("--name", default=None, help="label for the result (default: predictor kind)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also write an MSE-versus-time SVG")
    _add_backend_options(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="graphfill",
                     description="online reconstruction of time-varying graph signals")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic bundle")
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--nodes", type=_positive_int, default=50)
    p.add_argument("--steps", type=_positive_int, default=60)
    p.add_argument("--bandwidth", type=_positive_int, default=None,
                   help="spectral bandwidth of the generated signal (default: round(0.3 N))")
    p.add_argument("--rho", type=float, default=0.95, help="temporal correlation of the spectrum")
    p.add_argument("--innovation", type=float, default=0.1, help="innovation noise scale")
    p.add_argument("--knn", type=_positive_int, default=4, help="neighbors per node in the graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--units", default="", help="unit label stored in the manifest")

    p = sub.add_parser("mask", help="sample and write a mask file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", type=_positive_int, help="node count")
    group.add_argument("--manifest", help="take the node count from this bundle")
    p.add_argument("--fraction", type=_fraction_arg, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="mask file to write")

    p = sub.add_parser("run", help="run one predictor over a bundle")
    _add_run_options(p)

    p = sub.add_parser("compare", help="rank saved results in one table")
    p.add_argument("results", nargs="+", help="RunResult JSON files")
    p.add_argument("--csv", default=None, help="also write the table as CSV")

    p = sub.add_parser("replay-record",
                       help="run the llm predictor live and capture a replay file")
    _add_run_options(p)
    p.add_argument("--replay-out", required=True, help="replay JSONL to write")

    return parser


def _build_backend(args):
    """Backend construction; remote credentials are checked here, first."""
    kind = "mock" if args.predictor == "mock" else args.backend
    extra = {}
    if args.endpoint:
        extra["endpoint"] = args.endpoint
    cfg = BackendConfig(
        kind=kind,
        credential_env=args.credential_env,
        mock_alpha=args.mock_alpha,
        replay_path=args.replay_file,
        **extra,
    )
    backend = make_backend(cfg)
    if args.command == "replay-record":
        backend = RecordingBackend(backend, args.replay_out)
    return backend


def _build_predictor(args, units: str, prepared=None):
    if args.predictor == "zero":
        return ZeroPredictor()
    if args.predictor in FILTER_KINDS:
        return FilterPredictor(args.predictor, FilterConfig(mu=args.mu, bandwidth=args.bandwidth))
    backend, template = prepared
    return MessengerPredictor(
        backend,
        template=template,
        neighbor_mode=args.neighbor_mode,
        units=units,
        model=args.model,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        batch=bool(args.batch),
        name="mock" if args.predictor == "mock" else "llm",
    )


def _write_mse_curve(curves, path: Path) -> None:
    steps, all_curve, missing_curve = curves
    lines = ["t,mse_all,mse_missing"]
    for t, a, m in zip(steps, all_curve, missing_curve):
        lines.append(f"{int(t)},{float(a)!r},{float(m)!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_svg(name: str, curves, path: Path) -> None:
    """Minimal standalone line chart of the missing-node error per step."""
    from xml.sax.saxutils import escape  # imported on use: it loads urllib.request and ssl

    steps, _, curve = curves
    width, height, pad = 640, 400, 48
    top = max(float(np.max(curve)), 1e-12)
    xs = pad + (width - 2 * pad) * steps / max(len(steps) - 1, 1)
    ys = height - pad - (height - 2 * pad) * curve / top
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">time step (0..{len(steps) - 1})</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">missing-node MSE (peak {top:.4g})</text>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="14">{escape(name)}</text>',
        "</svg>",
    ]
    path.write_text("\n".join(svg) + "\n")


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    coords = rng.random((args.nodes, 2))
    g = knn_graph(coords, args.knn, weight_mode="gaussian")
    bandwidth = args.bandwidth or default_bandwidth(args.nodes)
    series = synth_bandlimited(
        g,
        bandwidth=bandwidth,
        temporal_rho=args.rho,
        innovation_std=args.innovation,
        t_len=args.steps,
        seed=args.seed + 1,
        units=args.units,
    )
    manifest = save_bundle(args.out, g, series, units=args.units)
    print(f"wrote bundle: {manifest} ({args.nodes} nodes, {args.steps} steps, F={bandwidth})")
    return 0


def cmd_mask(args) -> int:
    if args.manifest:
        g, _, _ = load_bundle(args.manifest)
        n = g.num_nodes
    else:
        n = args.nodes
    mask = generate_mask(n, args.fraction, args.seed)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    write_mask_file(mask, out)
    print(f"wrote mask: {out} ({mask.num_missing}/{n} nodes hidden)")
    return 0


def cmd_run(args) -> int:
    # The name becomes three file names inside --out, so it must be a plain one.
    if args.name is not None and (args.name in ("", ".", "..") or "/" in args.name or os.sep in args.name):
        raise UsageError(f"--name must be a plain file name, got {args.name!r}")
    # Backend and template come next: a missing credential, broken replay
    # file or bad template must surface before any data is loaded or decomposed.
    prepared = None
    if args.predictor in ("llm", "mock"):
        backend = _build_backend(args)
        template = PromptTemplate.load(args.template) if args.template else PromptTemplate.default()
        prepared = (backend, template)

    g, series, units = load_bundle(args.manifest)
    if args.mask_file:
        mask = read_mask_file(args.mask_file)
        if mask.num_nodes != g.num_nodes:
            raise UsageError(
                f"mask file covers {mask.num_nodes} nodes, bundle has {g.num_nodes}"
            )
    else:
        mask = MaskSpec(fraction=args.fraction, seed=args.seed, resample=not args.fixed_mask)
    predictor = _build_predictor(args, units, prepared)
    name = args.name or predictor.name

    result = run_online(predictor, g, series, mask, runs=args.runs, name=name)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result.save(outdir / f"{name}.json")
    result.write_per_step_csv(outdir / f"{name}_per_step.csv")
    curves = mse_over_time(result)
    _write_mse_curve(curves, outdir / f"{name}_mse_over_time.csv")
    if args.svg:
        _write_svg(name, curves, outdir / f"{name}.svg")

    print(
        f"{name}: mse_all={result.mse_all:.6g} mse_missing={result.mse_missing:.6g} "
        f"runs={result.runs} fallbacks={result.fallback_uses}"
    )
    print(f"results in {outdir}")
    return 0


def cmd_compare(args) -> int:
    results = [RunResult.load(p) for p in args.results]
    table = compare(results)
    sys.stdout.write(table.to_text())
    if args.csv:
        table.save_csv(args.csv)
        print(f"table written to {args.csv}")
    return 0


def cmd_replay_record(args) -> int:
    if args.predictor not in ("llm", "mock"):
        raise UsageError("replay-record only makes sense with --predictor llm (or mock for drills)")
    if args.predictor == "llm":
        args.backend = "remote"
    status = cmd_run(args)
    print(f"replay file captured at {args.replay_out}")
    return status


_COMMANDS = {
    "synth": cmd_synth,
    "mask": cmd_mask,
    "run": cmd_run,
    "compare": cmd_compare,
    "replay-record": cmd_replay_record,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage().rstrip() + "\n(choose a subcommand)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DatasetError, BackendError, TemplateError, OSError, ValueError,
            ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
