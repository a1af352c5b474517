#!/usr/bin/env bash
# One command for a profile of one ledger workload:
#
#   tools/sample-prof/profile.sh <workload> [seconds]
#
# Copies the working tree (uncommitted edits included) to a scratch
# directory, ${TMPDIR:-/tmp}/kml-sample-prof, so the build never rewrites
# this checkout's benchmark/Cargo.lock; builds the LD_PRELOAD sampler and a
# line-table kml-bench there (the cargo target is kept between runs); runs
# `kml-bench --workload W --seed 7 --seconds S --trace 0` twice under the
# sampler and prints report.py's tables for each, labelled with the share
# kind they measure (EXPERIMENTS.md E22):
#
#   whole-process  every sample, set-up and model training included;
#   after-set-up   SAMPLE_PROF_AFTER_S=1.5 CPU seconds, past kml-bench's
#                  set-ups, but with each rep's preparation still in.
#
# The third kind, timed-region-only, needs the timed call bracketed by
# setitimer in a copy of benchmark/ (E22 has the ten lines); make that edit
# in the copy this script leaves behind, never in the checkout.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <workload> [seconds]" >&2
  exit 2
fi
workload="$1"
seconds="${2:-8}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
mkdir -p "${TMPDIR:-/tmp}/kml-sample-prof"
scratch="$(cd "${TMPDIR:-/tmp}/kml-sample-prof" && pwd)" # absolute: LD_PRELOAD needs it
tree="$scratch/tree"

rm -rf "$tree"
mkdir -p "$tree"
# Tracked and untracked-but-not-ignored files, as they are on disk.
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tree"

gcc -O2 -shared -fPIC -o "$scratch/libsampleprof.so" "$tree/tools/sample-prof/sampleprof.c"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline \
  --manifest-path "$tree/benchmark/Cargo.toml" --target-dir "$scratch/target" 1>&2
bench="$scratch/target/release/kml-bench"

profile() { # <label> <SAMPLE_PROF_AFTER_S>
  local out="$scratch/$1.out"
  SAMPLE_PROF_OUT="$out" SAMPLE_PROF_AFTER_S="$2" LD_PRELOAD="$scratch/libsampleprof.so" \
    "$bench" --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 >/dev/null
  echo "== $workload, $1 (seed 7, ${seconds} s) =="
  python3 "$tree/tools/sample-prof/report.py" "$out" --top 15
  echo
}
profile whole-process 0
profile after-set-up 1.5
