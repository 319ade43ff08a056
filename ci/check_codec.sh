#!/usr/bin/env bash
# CI codec smoke: lock the binary demo format down end to end.
#
#  1. Golden record→replay→diff suite: committed binary fixtures for
#     httpd, fluidanimate and every hazard workload must replay clean
#     and (for the seed-deterministic workloads) match a fresh recording
#     byte for byte. Regenerate after an intentional format change with
#     UPDATE_GOLDEN=1 (see crates/apps/tests/demo_codec.rs). The
#     fluidanimate fixture must fit its exact byte budget.
#  2. Corruption battery: every truncation and single-bit flip of every
#     stream is a typed load error, never a panic.
#  3. Text-compat + conversion: pre-codec text fixtures still load
#     through auto-detect, and `srr demo convert` round-trips a live
#     recording text→bin→text with the store hashes unchanged.
#  4. Throughput/size gate: the codec bench asserts binary loads ≥ 1.5×
#     faster than text and the deduplicating store shrinks the hazard
#     corpus ≥ 40%; the deterministic byte-count rows are then diffed
#     against bench/baseline.json.
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

section "corruption battery + codec properties"
cargo test -q -p srr-replay --test corruption
cargo test -q -p srr-replay --test codec_properties

section "text-fixture compatibility"
cargo test -q -p srr-apps --test demo_compat

section "srr demo convert round trip"
DEMO_DIR="$(mktemp -d)"
TEXT_DIR="$(mktemp -d)"
# lib.sh owns the EXIT trap for tmpfile(); extend it for the two dirs.
trap 'rm -rf "$DEMO_DIR" "$TEXT_DIR"; _ci_cleanup' EXIT
srr record client --tool queue --seed 5 --out "$DEMO_DIR" >/dev/null
HASHES="$(tmpfile)"
srr demo hash --demo "$DEMO_DIR" >"$HASHES"
[ -s "$HASHES" ] || fail "demo hash printed nothing"
srr demo convert --demo "$DEMO_DIR" --to text --out "$TEXT_DIR" 2>/dev/null
head -1 "$TEXT_DIR/HEADER" | grep -q 'tsan11rec-demo' ||
  fail "converted HEADER is not the text format"
srr demo convert --demo "$TEXT_DIR" --to bin 2>/dev/null
diff -u "$HASHES" <(srr demo hash --demo "$TEXT_DIR") ||
  fail "text→bin→text round trip changed the stream hashes"
srr lint-demo --demo "$TEXT_DIR" >/dev/null || fail "converted demo does not lint clean"
srr replay client --demo "$TEXT_DIR" >/dev/null || fail "converted demo does not replay"

section "bench codec (--quick) + baseline gate"
cargo bench -p srr-bench --bench codec -- --quick
cargo run --release -p srr-bench --bin check_bench -- \
  --threshold "$THRESHOLD" bench/baseline.json BENCH_codec.json

echo "codec smoke OK"
