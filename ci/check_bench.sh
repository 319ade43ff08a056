#!/usr/bin/env bash
# CI bench job: run every quick bench, gate each emitted BENCH_*.json
# against bench/baseline.json, gate the profiler's overhead ratios, and
# leave the sample Chrome trace and the explore metrics trail that CI
# uploads. Every gate runs and the script fails at the end, so one
# failing row does not hide another.
#
# The benches run with tracing OFF (no Config::with_trace), so the
# table1 gate doubles as the observability overhead check: if the
# trace-off instrumentation hooks cost anything measurable, the table1
# quick means drift past the threshold vs bench/baseline.json.
#
# Thresholds: ±25% for every report but explore, whose runs/sec rows are
# machine-dependent (±60%; its distinct-signature count is held exactly
# by the explore golden test). The profile gates cap a profiled replay
# at 3.0x a plain one and an attached metrics registry at 1.5x: 15 runs
# on a 2-CPU host read 1.26–1.41 and 0.99–1.01, each the median of ten
# alternating pairs, so the slack absorbs runner noise.
#
# Usage: ci/check_bench.sh
set -uo pipefail
cd "$(dirname "$0")/.."

FAILED=()

# gate NAME CMD... — run one gate; on failure note it and carry on.
gate() {
  local name="$1"
  shift
  echo "=== $name ==="
  if ! "$@"; then
    echo "FAIL: $name" >&2
    FAILED+=("$name")
  fi
}

srr() { cargo run --release -q -p srr-apps --bin srr -- "$@"; }

check_bench() {
  cargo run --release -q -p srr-bench --bin check_bench -- --threshold "$@"
}

# ratio_gate NOTE MAX — BENCH_profile.json's NOTE must be at most MAX.
ratio_gate() {
  local ratio
  ratio="$(grep -oE "\"$1\": [0-9.]+" BENCH_profile.json | grep -oE '[0-9.]+$')"
  if [ -z "$ratio" ]; then
    echo "BENCH_profile.json lacks the $1 note" >&2
    return 1
  fi
  echo "$1 ${ratio}x (gate: ${2}x)"
  awk -v r="$ratio" -v max="$2" 'BEGIN { exit !(r <= max) }'
}

sample_trace() {
  srr trace barrier --tool queue --seed 3 --out trace_sample.json &&
    grep -q '"traceEvents"' trace_sample.json
}

# The barrier litmus races, so explore exits 2.
metrics_trail() {
  rm -rf metrics-trail
  srr explore barrier --runs 12 --strategies queue --json \
    --metrics-out metrics-trail >/dev/null
  [ $? -eq 2 ] && [ -s metrics-trail/metrics.json ] && [ -s metrics-trail/metrics.prom ]
}

for bench in table1 table2 table3 table5 codec explore plan profile; do
  gate "bench $bench (--quick)" cargo bench -p srr-bench --bench "$bench" -- --quick
done

gate "baseline: tables" check_bench 0.25 bench/baseline.json BENCH_table*.json
gate "baseline: codec" check_bench 0.25 bench/baseline.json BENCH_codec.json
gate "baseline: plan" check_bench 0.25 bench/baseline.json BENCH_plan.json
gate "baseline: explore" check_bench 0.6 bench/baseline.json BENCH_explore.json
gate "profile overhead ratio" ratio_gate profile_overhead_ratio 3.0
gate "metrics overhead ratio" ratio_gate metrics_overhead_ratio 1.5
gate "sample chrome trace" sample_trace
gate "explore --metrics-out trail" metrics_trail

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "FAIL: ${#FAILED[@]} gate(s): ${FAILED[*]}" >&2
  exit 1
fi
echo "bench gates OK"
