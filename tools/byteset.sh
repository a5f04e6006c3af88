#!/bin/sh
# Usage: tools/byteset.sh <repo> <outdir>
#
# Builds the byte-identity recipe with the graphfill source in <repo>/src and
# prints one "sha256  path" line per output file, paths relative to <outdir>.
# Two checkouts give the same list when their canonical output is the same:
#
#   tools/byteset.sh . /tmp/new > new.txt
#   tools/byteset.sh ../parent /tmp/old > old.txt
#   diff old.txt new.txt
#
# Recipe: the toy bundle and two synthetic ones (60 x 40, seed 3; 197 x 95,
# seed 0, k = 5), each run with glms, gsign, mock, zero, mock --fixed-mask
# --svg, mock --batch, mock observed-only, a 1-run mock replay-record and its
# 1-run replay; the 197-node bundle also runs the filters at two corners of the
# paper's step-size and bandwidth grid (glms --mu 1.5 --bandwidth 20, gsign
# --mu 0.1 --bandwidth 80 --fixed-mask). A fourth bundle at the large benchmark
# shape (1000 x 100, seed 0, k = 5) runs glms --runs 3, so the writers are also
# checked multi-run at that size. On the 197-node bundle, compare --csv ranks
# the glms, gsign, mock and zero results, and a mask file sampled with mask
# --seed 4 drives a glms run --mask-file: the comparison, mask writer, mask
# reader and explicit-mask policy. A custom template file, with a padded and a
# repr-converted field and escaped braces, drives a 1-run mock replay-record on
# the toy bundle, whose replay file holds each prompt's hash. The 197-node
# bundle's station coordinates (synth's own, from its seed) are written next to
# it with a coordinate manifest (k = 5, gaussian weights), and a glms run on
# that manifest checks the coordinate loader: its files equal runs/b197/glms's.
# 120 files in all.
# One BLAS thread, since the synthetic signal's eigendecomposition differs in
# the last bits between thread counts.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <repo> <outdir>" >&2; exit 1; }
repo=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
[ -z "$(ls -A "$out")" ] || { echo "$0: $out is not empty" >&2; exit 1; }
export PYTHONPATH="$repo/src" OPENBLAS_NUM_THREADS=1
gf() { python3 -m graphfill.cli "$@" > /dev/null; }

gf synth --out "$out/b60" --nodes 60 --steps 40 --seed 3
gf synth --out "$out/b197" --nodes 197 --steps 95 --seed 0 --knn 5
gf synth --out "$out/b1000" --nodes 1000 --steps 100 --seed 0 --knn 5
for bundle in toy b60 b197; do
    manifest="$out/$bundle/manifest.txt"
    [ "$bundle" = toy ] && manifest="$repo/fixtures/toy/manifest.txt"
    runs="$out/runs/$bundle"
    for predictor in glms gsign mock zero; do
        gf run --manifest "$manifest" --predictor "$predictor" --out "$runs/$predictor"
    done
    gf run --manifest "$manifest" --predictor mock --fixed-mask --svg --out "$runs/fixed"
    gf run --manifest "$manifest" --predictor mock --batch --out "$runs/batch"
    gf run --manifest "$manifest" --predictor mock --neighbor-mode observed-only --out "$runs/observed-only"
    gf replay-record --manifest "$manifest" --predictor mock --runs 1 \
        --replay-out "$runs/replay.jsonl" --out "$runs/record"
    gf run --manifest "$manifest" --predictor llm --backend replay --replay-file "$runs/replay.jsonl" \
        --runs 1 --out "$runs/replay"
done
gf run --manifest "$out/b197/manifest.txt" --predictor glms --mu 1.5 --bandwidth 20 --out "$out/runs/b197/glms-corner"
gf run --manifest "$out/b197/manifest.txt" --predictor gsign --mu 0.1 --bandwidth 80 --fixed-mask \
    --out "$out/runs/b197/gsign-corner"
runs="$out/runs/b197"
gf compare "$runs/glms/glms.json" "$runs/gsign/gsign.json" "$runs/mock/mock.json" "$runs/zero/zero.json" \
    --csv "$runs/compare.csv"
gf mask --manifest "$out/b197/manifest.txt" --seed 4 --out "$runs/mask.txt"
gf run --manifest "$out/b197/manifest.txt" --predictor glms --mask-file "$runs/mask.txt" --out "$runs/glms-mask-file"
gf run --manifest "$out/b1000/manifest.txt" --predictor glms --runs 3 --out "$out/runs/b1000/glms"
python3 -c 'import sys, numpy as np; from graphfill.graphs import write_coordinates
write_coordinates(np.random.default_rng(0).random((197, 2)), sys.argv[1])' "$out/b197/stations.csv"
printf '%s\n' 'signal = signal.csv' 'coordinates = stations.csv' 'knn_k = 5' 'knn_weights = gaussian' \
    > "$out/b197/coords-manifest.txt"
gf run --manifest "$out/b197/coords-manifest.txt" --predictor glms --out "$out/runs/b197/coords-glms"
printf '%s\n' 'Station {node_id:>4} in {units!r}, literal {{braces}}:' '{prev_estimate_block}' \
    '{neighbor_block}' '{instruction_block}' > "$out/template.txt"
gf replay-record --manifest "$repo/fixtures/toy/manifest.txt" --predictor mock --runs 1 --template "$out/template.txt" \
    --replay-out "$out/runs/toy/template-replay.jsonl" --out "$out/runs/toy/template"
cd "$out" && find . -type f | LC_ALL=C sort | xargs sha256sum
