#!/usr/bin/env bash
# Builds srrbench in release mode and runs `srrbench run` K times for one
# seed, writing srrbench/results/<seed>-<k>.json. With K >= 2 it then
# compares the odd-numbered runs against the even-numbered ones: two
# interleaved sets of runs of the same code, which must agree within the
# bounds of BENCHMARK.json (no metric worse, none unresolved). Exits
# non-zero when they do not.
#
#   srrbench/run.sh SEED K
set -euo pipefail

usage="usage: srrbench/run.sh SEED K"
seed=${1:?$usage}
runs=${2:?$usage}
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."

cargo build --release --offline --quiet --manifest-path srrbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-srrbench/target}/release/srrbench

mkdir -p srrbench/results
odd=()
even=()
for k in $(seq 1 "$runs"); do
  out=srrbench/results/$seed-$k.json
  "$bin" run --seed "$seed" --json "$out"
  if (( k % 2 )); then odd+=("$out"); else even+=("$out"); fi
done
if (( runs >= 2 )); then
  "$bin" compare --parent "${odd[@]}" --change "${even[@]}"
fi
