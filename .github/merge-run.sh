#!/bin/sh
# Usage: sh .github/merge-run.sh PYTHON OUTPUT
#
# Splits a corpus file into 2x2 grid tiles with PYTHON, re-encodes every
# other tile at --digits 1 so that the inputs' transforms differ, and
# merges them back in one run of merge stages, written to OUTPUT.  The file
# splits into two tiles; the list is taken twice (with --policy suffix) so
# that the run has three merge stages.
set -eu
py=$1
out=$2
tiles=$(mktemp -d)
export PYTHONPATH=src
"$py" -m cjtk.cli tests/data/corpus/20-tunnel-water-relief.city.json \
  compress partition --grid 2x2 --out-dir "$tiles" > "$tiles.list"
i=0
first=
set --
for tile in $(cat "$tiles.list" "$tiles.list"); do
  if [ $((i % 2)) = 1 ]; then
    "$py" -m cjtk.cli "$tile" compress --digits 1 save "$tile.$i.json"
    tile=$tile.$i.json
  fi
  if [ -z "$first" ]; then
    first=$tile
  else
    set -- "$@" merge --policy suffix "$tile"
  fi
  i=$((i + 1))
done
"$py" -m cjtk.cli "$first" "$@" save - > "$out"
rm -r "$tiles" "$tiles.list"
