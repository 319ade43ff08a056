#!/usr/bin/env bash
# CI codec smoke: lock the binary demo format down end to end.
#
#  1. Golden record→replay→diff suite: committed binary fixtures for
#     httpd, fluidanimate and every hazard workload must replay clean
#     and (for the seed-deterministic workloads) match a fresh recording
#     byte for byte. Regenerate after an intentional format change with
#     UPDATE_GOLDEN=1 (see crates/apps/tests/demo_codec.rs). The
#     fluidanimate and httpd fixtures must fit their exact byte budgets.
#  2. Corruption battery: every truncation and single-bit flip of every
#     stream is a typed load error, never a panic.
#  3. Export: `srr demo export` writes a live recording's text
#     rendering, and the export is refused by every reader with a typed
#     error naming the file (text is export-only; the codec is the one
#     reader).
#  4. Size gate: the codec bench asserts the deduplicating store
#     shrinks the hazard corpus ≥ 40%; the deterministic byte-count rows
#     are then diffed against bench/baseline.json.
#
# Usage: ci/check_codec.sh [threshold]   (default 0.25 = ±25%)
set -euo pipefail
. "$(dirname "$0")/lib.sh"

THRESHOLD="${1:-0.25}"

section "golden record→replay→diff suite"
cargo test -q -p srr-apps --test demo_codec

section "fluidanimate fixture byte budget"
# 0.0331 B per cell-step, codec v1's cost on this recording, times its
# 6,400 cell-steps. Byte counts are exact, so the budget is too.
FLUID_BYTES="$(cat crates/apps/tests/fixtures/codec/fluidanimate/* | wc -c)"
[ "$FLUID_BYTES" -le 211 ] ||
  fail "fluidanimate fixture takes $FLUID_BYTES B, over its 211 B budget"
echo "fluidanimate fixture: $FLUID_BYTES B (budget 211)"

section "httpd fixture byte budget"
# What codec v4 spends on the committed httpd recording (v3 spent 1,555).
HTTPD_BYTES="$(cat crates/apps/tests/fixtures/codec/httpd/* | wc -c)"
[ "$HTTPD_BYTES" -le 990 ] ||
  fail "httpd fixture takes $HTTPD_BYTES B, over its 990 B budget"
echo "httpd fixture: $HTTPD_BYTES B (budget 990)"

section "corruption battery + codec properties"
cargo test -q -p srr-replay --test corruption
cargo test -q -p srr-replay --test codec_properties

section "srr demo export"
DEMO_DIR="$(mktemp -d)"
TEXT_DIR="$(mktemp -d)"
# lib.sh owns the EXIT trap for tmpfile(); extend it for the two dirs.
trap 'rm -rf "$DEMO_DIR" "$TEXT_DIR"; _ci_cleanup' EXIT
srr record client --tool queue --seed 5 --out "$DEMO_DIR" >/dev/null
HASHES="$(tmpfile)"
srr demo hash --demo "$DEMO_DIR" >"$HASHES"
[ -s "$HASHES" ] || fail "demo hash printed nothing"
srr lint-demo --demo "$DEMO_DIR" >/dev/null || fail "recorded demo does not lint clean"
srr demo export --demo "$DEMO_DIR" --out "$TEXT_DIR" 2>/dev/null
head -1 "$TEXT_DIR/HEADER" | grep -q '^tsan11rec-demo v1$' ||
  fail "exported HEADER is not the text rendering"
ERR="$(tmpfile)"
got=0
srr replay client --demo "$TEXT_DIR" >/dev/null 2>"$ERR" || got=$?
[ "$got" -eq 1 ] || fail "replaying a text export exited $got, expected 1"
grep -q 'cannot decode HEADER: bad magic' "$ERR" ||
  fail "replaying a text export did not name HEADER: $(cat "$ERR")"
diff -u "$HASHES" <(srr demo hash --demo "$DEMO_DIR") ||
  fail "export changed the demo's stream hashes"

section "bench codec (--quick) + baseline gate"
cargo bench -p srr-bench --bench codec -- --quick
cargo run --release -p srr-bench --bin check_bench -- \
  --threshold "$THRESHOLD" bench/baseline.json BENCH_codec.json

echo "codec smoke OK"
