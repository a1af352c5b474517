#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, as BENCHMARK.json's contract asks: builds,
#       measures, checks, and prints one JSON object as its last line.
#   benchmark/run.sh [--seed S] [--smoke] [--aa] [--seconds S]
#       the whole ledger: every workload untraced then traced, every metric
#       by name with its unit; exits non-zero on any failed check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

# Provenance the binary cannot see for itself.
KML_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
if git -C "$here" rev-parse --short HEAD >/dev/null 2>&1; then
  KML_BENCH_GIT="$(git -C "$here" rev-parse --short HEAD)"
  [ -z "$(git -C "$here" status --porcelain 2>/dev/null)" ] || KML_BENCH_GIT="$KML_BENCH_GIT-dirty"
else
  KML_BENCH_GIT="not-a-git-checkout"
fi
export KML_BENCH_RUSTC KML_BENCH_GIT

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$target/release/kml-bench" "$@"
  fi
done
exec "$target/release/kml-bench" --ledger "$@"
