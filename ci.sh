#!/bin/sh
# CI gate: build, full test suite (includes the smoke crash,
# replication and bit-rot sweeps), bench smoke (micro + query engine +
# observability overhead + replication + page integrity + mvcc +
# serving + loadgen + cluster, which emit BENCH_PR3.json ..
# BENCH_PR10.json into a temp dir — the committed trajectory records in
# the repo tree are never touched), then the long fixed-seed
# crash-torture, replication fault and bit-rot sweeps.  Equivalent to
# `dune build @ci` plus the bench smoke.  Pass `smoke` to skip the
# long sweeps.
#
# Set BENCH_OUT to keep the emitted bench records (CI uploads them as
# workflow artifacts); unset, they go to a temp dir removed on exit.
set -e
cd "$(dirname "$0")"

fail() {
  echo "ci: $*" >&2
  exit 1
}

# check_bench_json FILE KEY... — the trajectory record must exist,
# parse as a JSON object, contain every KEY, and must not record a
# failed acceptance gate ("pass": false anywhere).  Validation is done
# by the bench harness's own JSON reader (`bench/main.exe validate`),
# not a grep over the raw bytes.
check_bench_json() {
  file="$1"
  shift
  [ -s "$file" ] || fail "$(basename "$file") missing or empty"
  dune exec bench/main.exe -- validate "$file" "$@" \
    || fail "$(basename "$file") failed validation"
}

dune build
dune runtest

# bench smoke: each section must run end to end and emit a well-formed
# trajectory record with its acceptance gate passing
if [ -n "${BENCH_OUT:-}" ]; then
  mkdir -p "$BENCH_OUT"
else
  BENCH_OUT="$(mktemp -d)"
  trap 'rm -rf "$BENCH_OUT"' EXIT INT TERM
fi

# snapshot the committed trajectory records so we can prove the bench
# smoke never clobbers them (it must write only into $BENCH_OUT)
records_digest() {
  cat BENCH_PR2.json BENCH_PR3.json BENCH_PR4.json BENCH_PR5.json \
    BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json \
    BENCH_PR10.json 2>/dev/null | cksum
}
digest_before="$(records_digest)"

dune exec bench/main.exe -- micro >/dev/null

# query engine (PR3): compiled plans vs the reference interpreter
dune exec bench/main.exe -- query --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR3.json" \
  deep_descent pool_descent join_heavy range_predicate like_prefix \
  workloads workloads_at_2x acceptance

# observability overhead (PR4): metrics on vs off on the gated workloads
dune exec bench/main.exe -- obs --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR4.json" \
  pr2_commit_tx pr3_deep_descent pr3_join_heavy pr3_range_predicate \
  workloads max_overhead_pct acceptance

# replication (PR5): ship/apply throughput and live-pair convergence
dune exec bench/main.exe -- repl --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR5.json" \
  ship_encode apply_replay steady_state_lag mean_lag_lsns \
  final_lsn_equal files_identical workloads acceptance

# page integrity (PR6): verified-read overhead against a checksum-less
# file, scrub throughput, bit-rot detection
dune exec bench/main.exe -- integrity --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR6.json" \
  verified_read cold_scan scrub detection overhead_pct \
  workloads acceptance

# mvcc (PR7): snapshot reader scaling across domains (gated, core-aware)
# and group-commit throughput (reported)
dune exec bench/main.exe -- mvcc --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR7.json" \
  reader_scaling speedup_4_vs_1 cores group_commit \
  serial_commits_per_s group_commits_per_s workloads acceptance

# snapshot serving (PR8): reader-pool QPS vs single-handle serving
# (gated, core-aware) and read-your-writes under a write-heavy mix
# (violations gated at zero)
dune exec bench/main.exe -- serving --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR8.json" \
  serving_scaling speedup_pool4_vs_single cores write_mix \
  rywr_violations pool_read_p99_ms workloads acceptance

# event-loop serving (PR9): connection-scaling curve HTTP vs binary
# (gated, core-aware) and the admission-control probe (connections
# dropped without a 503 gated at zero)
dune exec bench/main.exe -- loadgen --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR9.json" \
  connection_scaling admission_control qps_http_close_256 \
  qps_binary_batch_256 speedup_batch_vs_close_256 cores \
  p99_binary_batch_256_ms dropped_without_503 workloads acceptance

# cluster tier (PR10): aggregate routed GET QPS vs replica count
# (gated, core-aware), tail latency with one lagging replica (stale
# answers gated at zero), and failover time from primary kill to the
# first successful routed write (acknowledged-write loss and
# read-your-writes violations gated at zero)
dune exec bench/main.exe -- cluster --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR10.json" \
  replica_scaling lagging_replica failover qps_1_replica qps_4_replicas \
  scaling_4_vs_1 lagging_p99_ms failover_ms acked_writes_lost \
  rywr_violations replica_promoted cores workloads acceptance

# the bench smoke must leave the committed trajectory records untouched
[ "$(records_digest)" = "$digest_before" ] \
  || fail "bench smoke clobbered committed trajectory records"

if [ "${1:-full}" != "smoke" ]; then
  CRASH_TORTURE=long dune exec test/test_crash.exe -- -e
  REPL_TORTURE=long dune exec test/test_repl.exe -- -e
  SCRUB_TORTURE=long dune exec test/test_integrity.exe -- -e
  LOADGEN=soak dune exec bench/main.exe -- loadgen --out "$BENCH_OUT" >/dev/null
  check_bench_json "$BENCH_OUT/BENCH_PR9.json" \
    speedup_batch_vs_close_256 dropped_without_503 acceptance
fi
echo "ci: OK"
