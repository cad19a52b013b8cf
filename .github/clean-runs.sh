#!/bin/sh
# Usage: sh .github/clean-runs.sh PYTHON DIR
#
# Runs `clean metadata subset --type Building save -` with PYTHON on every
# corpus file, and `clean save -` on a document whose geometry of unknown
# type holds the string "x" where a vertex index goes.  Each run's standard
# output, standard error and exit code go to DIR/NAME.out, DIR/NAME.err
# and DIR/NAME.exit.
set -eu
py=$1
dir=$2
mkdir -p "$dir"
export PYTHONPATH=src
run() {
  name=$1
  shift
  status=0
  "$py" -m cjtk.cli "$@" > "$dir/$name.out" 2> "$dir/$name.err" || status=$?
  echo "$status" > "$dir/$name.exit"
}
for f in tests/data/corpus/*.city.json; do
  run "$(basename "$f" .city.json)" "$f" \
    clean metadata subset --type Building save -
done
doc=$(mktemp)
printf '%s\n' '{"type": "CityJSON", "version": "1.0", "CityObjects": {"a":
  {"type": "Building", "geometry": [{"type": "Foo", "lod": 1,
  "boundaries": [["x"], [1]]}]}}, "vertices": [[0, 0, 0], [1, 0, 0],
  [1, 1, 0]]}' > "$doc"
run string-index "$doc" clean save -
rm "$doc"
