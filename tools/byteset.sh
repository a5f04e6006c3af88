#!/bin/sh
# Usage: tools/byteset.sh <repo> <outdir>
#
# Builds the byte-identity recipe with the graphfill source in <repo>/src and
# prints one "sha256  path" line per output file, paths relative to <outdir>.
# The recipe and its description live in tools/byteset.py, which this runs;
# tools/byteset.sha256 is the committed list. Two checkouts give the same list
# when their canonical output is the same:
#
#   tools/byteset.sh . /tmp/new > new.txt
#   tools/byteset.sh ../parent /tmp/old > old.txt
#   diff old.txt new.txt
exec python3 "$(dirname "$0")/byteset.py" "$@"
