#!/bin/sh
# Build the benchmark and the server from source, then run one workload:
#
#   sh perfbench/run.sh --workload flora_browse --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build products go to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -e
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
case $build in
  /*) export TMPDIR="$build/tmp" ;;
  *) export TMPDIR="$PWD/$build/tmp" ;;
esac
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=dune
else
  dune="opam exec -- dune"
fi
$dune build --root . --build-dir "$build" ./perfbench/main.exe ./bin/pdb.exe 1>&2
# Client and server share one CPU: the load keeps one request outstanding,
# so nothing runs in parallel anyway, and every hand-off between them is a
# same-CPU wakeup instead of a cross-CPU one, whose cost on a small VM
# varies by milliseconds.  The CPU is the last one this process may run
# on; the run's context line records it, or "unpinned".
PERFBENCH_NPROC=$(nproc 2>/dev/null || echo 0)
export PERFBENCH_NPROC
cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//')
cpu=${cpus##*,}
cpu=${cpu##*-}
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  PERFBENCH_CPU=$cpu
  export PERFBENCH_CPU
  exec taskset -c "$cpu" "$build/default/perfbench/main.exe" "$@"
fi
PERFBENCH_CPU=unpinned
export PERFBENCH_CPU
exec "$build/default/perfbench/main.exe" "$@"
