"""Build the byte-identity recipe and print one "sha256  ./path" line per output file.

Usage: python3 tools/byteset.py <repo> <outdir>

Every command runs through ``graphfill.cli.main`` in this one interpreter,
with the graphfill source in ``<repo>/src`` and one BLAS thread, since the
synthetic signal's eigendecomposition differs in the last bits between thread
counts. ``<outdir>`` must be empty or absent. Paths are relative to it and
sorted bytewise, as ``find . -type f | LC_ALL=C sort | xargs sha256sum`` lists
them. Two checkouts give the same list when their canonical output is the same:

    python3 tools/byteset.py . /tmp/new > new.txt
    python3 tools/byteset.py ../parent /tmp/old > old.txt
    diff old.txt new.txt

``tools/byteset.sha256`` holds the list, under a header naming the Python,
numpy and BLAS build (:func:`environment`) it was made with; the tier-1 test
``tests/test_byteset.py`` rebuilds and compares it. A change that alters
canonical bytes on purpose updates that file in the same commit.

Recipe: the toy bundle and two synthetic ones (60 x 40, seed 3; 197 x 95,
seed 0, k = 5), each run with glms, gsign, mock, zero, mock --fixed-mask
--svg, mock --batch, mock observed-only, a 1-run mock replay-record and its
1-run replay; the 197-node bundle also runs the filters at two corners of the
paper's step-size and bandwidth grid (glms --mu 1.5 --bandwidth 20, gsign
--mu 0.1 --bandwidth 80 --fixed-mask). A fourth bundle at the large benchmark
shape (1000 x 100, seed 0, k = 5) runs glms --runs 3, so the writers are also
checked multi-run at that size. On the 197-node bundle, compare --csv ranks
the glms, gsign, mock and zero results, and a mask file sampled with mask
--seed 4 drives a glms run --mask-file: the comparison, mask writer, mask
reader and explicit-mask policy. A custom template file, with a padded and a
repr-converted field and escaped braces, drives a 1-run mock replay-record on
the toy bundle, whose replay file holds each prompt's hash. The 197-node
bundle's station coordinates (synth's own, from its seed) are written next to
it with a coordinate manifest (k = 5, gaussian weights), and a glms run on
that manifest checks the coordinate loader: its files equal runs/b197/glms's.
120 files in all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
from pathlib import Path


def environment() -> dict[str, str]:
    """The Python, numpy and BLAS build whose bits the list pins."""
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    build = " ".join(str(blas.get(key, "?")) for key in ("name", "version", "openblas configuration"))
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": " ".join(build.split())}


def build(repo: Path, out: Path) -> None:
    """Write every file of the recipe under ``out``."""
    import numpy as np

    from graphfill.cli import main
    from graphfill.graphs import write_coordinates

    def gf(*argv) -> None:
        argv = [str(arg) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"byteset: graphfill {' '.join(argv)} exited with status {code}")

    gf("synth", "--out", out / "b60", "--nodes", 60, "--steps", 40, "--seed", 3)
    gf("synth", "--out", out / "b197", "--nodes", 197, "--steps", 95, "--seed", 0, "--knn", 5)
    gf("synth", "--out", out / "b1000", "--nodes", 1000, "--steps", 100, "--seed", 0, "--knn", 5)
    for bundle in ("toy", "b60", "b197"):
        manifest = repo / "fixtures" / "toy" / "manifest.txt" if bundle == "toy" else out / bundle / "manifest.txt"
        runs = out / "runs" / bundle
        for predictor in ("glms", "gsign", "mock", "zero"):
            gf("run", "--manifest", manifest, "--predictor", predictor, "--out", runs / predictor)
        gf("run", "--manifest", manifest, "--predictor", "mock", "--fixed-mask", "--svg", "--out", runs / "fixed")
        gf("run", "--manifest", manifest, "--predictor", "mock", "--batch", "--out", runs / "batch")
        gf("run", "--manifest", manifest, "--predictor", "mock", "--neighbor-mode", "observed-only",
           "--out", runs / "observed-only")
        gf("replay-record", "--manifest", manifest, "--predictor", "mock", "--runs", 1,
           "--replay-out", runs / "replay.jsonl", "--out", runs / "record")
        gf("run", "--manifest", manifest, "--predictor", "llm", "--backend", "replay",
           "--replay-file", runs / "replay.jsonl", "--runs", 1, "--out", runs / "replay")
    b197, runs = out / "b197" / "manifest.txt", out / "runs" / "b197"
    gf("run", "--manifest", b197, "--predictor", "glms", "--mu", 1.5, "--bandwidth", 20, "--out", runs / "glms-corner")
    gf("run", "--manifest", b197, "--predictor", "gsign", "--mu", 0.1, "--bandwidth", 80, "--fixed-mask",
       "--out", runs / "gsign-corner")
    gf("compare", *(runs / name / f"{name}.json" for name in ("glms", "gsign", "mock", "zero")),
       "--csv", runs / "compare.csv")
    gf("mask", "--manifest", b197, "--seed", 4, "--out", runs / "mask.txt")
    gf("run", "--manifest", b197, "--predictor", "glms", "--mask-file", runs / "mask.txt", "--out", runs / "glms-mask-file")
    gf("run", "--manifest", out / "b1000" / "manifest.txt", "--predictor", "glms", "--runs", 3,
       "--out", out / "runs" / "b1000" / "glms")
    write_coordinates(np.random.default_rng(0).random((197, 2)), out / "b197" / "stations.csv")
    lines = ["signal = signal.csv", "coordinates = stations.csv", "knn_k = 5", "knn_weights = gaussian"]
    (out / "b197" / "coords-manifest.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    gf("run", "--manifest", out / "b197" / "coords-manifest.txt", "--predictor", "glms", "--out", runs / "coords-glms")
    lines = ["Station {node_id:>4} in {units!r}, literal {{braces}}:", "{prev_estimate_block}",
             "{neighbor_block}", "{instruction_block}"]
    (out / "template.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    gf("replay-record", "--manifest", repo / "fixtures" / "toy" / "manifest.txt", "--predictor", "mock",
       "--runs", 1, "--template", out / "template.txt", "--replay-out", out / "runs" / "toy" / "template-replay.jsonl",
       "--out", out / "runs" / "toy" / "template")


def listing(out: Path) -> list[str]:
    """One ``sha256sum`` line per file under ``out``, paths as ``./relative``, sorted bytewise."""
    paths = sorted("./" + path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file())
    return [f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}" for path in paths]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: byteset.py <repo> <outdir>", file=sys.stderr)
        return 1
    repo, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"byteset.py: {out} is not empty", file=sys.stderr)
        return 1
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy is first imported, below
    sys.path.insert(0, str(repo / "src"))
    build(repo, out)
    print("\n".join(listing(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
