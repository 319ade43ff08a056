#!/usr/bin/env bash
# CI profile smoke: replay the committed httpd demo through the causal
# profiler and hold it to its two contracts — *exactness* (bucket totals
# sum to the replay's tick count; the critical-path walk telescopes) and
# *determinism* (`--json` output byte-identical across runs, and the
# ranked bucket list matching the committed expectations). Then run the
# profile bench and gate the overhead ratios: a profiled replay must
# stay a cheap diagnostic, and an attached metrics registry must cost a
# normal run next to nothing. Finally, `srr explore --metrics-out` must
# leave its telemetry trail.
#
# Usage: ci/check_profile.sh [profile_ratio_max] [metrics_ratio_max]
# (defaults 3.0 and 1.5: 15 runs on a 2-CPU host read 1.26–1.41 and
# 0.99–1.01, each the median of ten alternating pairs; the slack absorbs
# CI-runner noise, not a regression class).
set -euo pipefail
. "$(dirname "$0")/lib.sh"

PROFILE_RATIO_MAX="${1:-3.0}"
METRICS_RATIO_MAX="${2:-1.5}"
DEMO=crates/apps/tests/fixtures/profile/httpd_demo
EXPECTED=ci/profile_expected.txt

section "srr profile (committed httpd demo)"
A="$(tmpfile)"
B="$(tmpfile)"
srr profile httpd --demo "$DEMO" --json >"$A"
srr profile httpd --demo "$DEMO" --json >"$B"
cmp -s "$A" "$B" ||
  fail "profile --json differs between two runs of the same demo (determinism broken)"

# Exactness: every tick of the replay is attributed to some bucket.
TOTAL="$(grep -oE '"total_ticks": [0-9]+' "$A" | grep -oE '[0-9]+')"
ATTRIBUTED="$(grep -oE '"attributed_ticks": [0-9]+' "$A" | grep -oE '[0-9]+')"
[ -n "$TOTAL" ] && [ "$TOTAL" -gt 0 ] || fail "no ticks in profile output"
[ "$TOTAL" = "$ATTRIBUTED" ] ||
  fail "bucket totals ($ATTRIBUTED) != replay ticks ($TOTAL): the walk dropped time"

# Golden ranking: bucket names and tick counts, in rank order. Logical
# time only, so this is exact — any drift means the attribution rules
# (or the replay itself) changed and the expectations need re-vetting.
ACTUAL="$(tmpfile)"
grep -oE '"name": "[^"]*"|"ticks": [0-9]+' "$A" |
  sed -e 's/"name": "//' -e 's/"$//' -e 's/"ticks": //' |
  paste -d' ' - - >"$ACTUAL"
if ! diff -u "$EXPECTED" "$ACTUAL"; then
  fail "bucket ranking drifted from $EXPECTED"
fi

section "bench profile (--quick) + overhead gate"
cargo bench -p srr-bench --bench profile -- --quick
ratio_of() {
  grep -oE "\"$1\": [0-9.]+" BENCH_profile.json | grep -oE '[0-9.]+$'
}
PROFILE_RATIO="$(ratio_of profile_overhead_ratio)"
METRICS_RATIO="$(ratio_of metrics_overhead_ratio)"
[ -n "$PROFILE_RATIO" ] && [ -n "$METRICS_RATIO" ] ||
  fail "BENCH_profile.json is missing the overhead ratio notes"
awk -v r="$PROFILE_RATIO" -v max="$PROFILE_RATIO_MAX" \
  'BEGIN { exit !(r <= max) }' ||
  fail "profiled replay is ${PROFILE_RATIO}x a plain one (gate: ${PROFILE_RATIO_MAX}x)"
awk -v r="$METRICS_RATIO" -v max="$METRICS_RATIO_MAX" \
  'BEGIN { exit !(r <= max) }' ||
  fail "metrics plane costs ${METRICS_RATIO}x (gate: ${METRICS_RATIO_MAX}x)"
echo "profile overhead ${PROFILE_RATIO}x (<= ${PROFILE_RATIO_MAX}x), metrics ${METRICS_RATIO}x (<= ${METRICS_RATIO_MAX}x)"

section "explore --metrics-out telemetry trail"
# The trail lands in-repo so the workflow can upload it as an artifact.
METRICS_DIR=metrics-trail
rm -rf "$METRICS_DIR"
got=0
srr explore barrier --runs 12 --strategies queue --json \
  --metrics-out "$METRICS_DIR" >/dev/null || got=$?
[ "$got" -eq 2 ] || fail "explore exited $got, expected 2 (barrier races)"
[ -s "$METRICS_DIR/metrics.json" ] || fail "metrics.json missing"
[ -s "$METRICS_DIR/metrics.prom" ] || fail "metrics.prom missing"
grep -q '^farm_runs 12$' "$METRICS_DIR/metrics.prom" ||
  fail "metrics.prom lacks farm_runs 12"

echo "profile smoke OK"
