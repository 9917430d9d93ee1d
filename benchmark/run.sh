#!/usr/bin/env bash
# Builds the gbisect daemon and the benchmark from source, then runs the
# benchmark from the root of the source tree with the given arguments:
#
#   bash benchmark/run.sh --workload vcycle-gnp --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# No shared dune cache: the build reads and writes only this tree.
dune build --root . --cache=disabled ./benchmark/run.exe ./bin/gbisect_cli.exe >&2
# The whole run on the first CPU it may use, so that the daemon shares
# the CPU its client times the reference kernel on (see README.md).
# Where taskset is missing or refused, the run is not pinned.
cpu=$(taskset -pc $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/[-,].*//') || cpu=
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" ./_build/default/benchmark/run.exe "$@"
fi
exec ./_build/default/benchmark/run.exe "$@"
