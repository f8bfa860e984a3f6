#!/bin/sh
# CI gate: build, full test suite (includes the smoke crash,
# replication and bit-rot sweeps), bench smoke (the micro-benchmarks
# plus every subsystem's performance floor, `bench/main.exe gates`,
# which exits non-zero when a floor fails), then the long fixed-seed
# crash-torture, replication fault and bit-rot sweeps, the long
# membership-plan differential and the loadgen soak.  Equivalent to `dune build @ci` plus the bench smoke.  Pass
# `smoke` to skip the long sweeps.
set -e
cd "$(dirname "$0")"

dune build
dune runtest

dune exec bench/main.exe -- micro >/dev/null
dune exec bench/main.exe -- gates

if [ "${1:-full}" != "smoke" ]; then
  CRASH_TORTURE=long dune exec test/test_crash.exe -- -e
  REPL_TORTURE=long dune exec test/test_repl.exe -- -e
  SCRUB_TORTURE=long dune exec test/test_integrity.exe -- -e
  MEMBER_TORTURE=long dune exec test/test_query_engine.exe -- test member -e
  LOADGEN=soak dune exec bench/main.exe -- gates
fi
echo "ci: OK"
