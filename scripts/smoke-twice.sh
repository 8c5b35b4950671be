#!/usr/bin/env bash
# Runs the CI-sized (`--smoke`) grid of one experiment binary twice, into two
# independent output directories, and holds each artifact against a baseline
# through the binary's own `--compare` gate: the second run against the
# first's, and (with SMOKE_COMMITTED) the first against the committed one.
# The gate compares what the binary declares machine-invariant (the whole
# file, or its `deterministic` section) and exits 1 on drift or a failed pin;
# the script also requires its "fresh artifact matches the committed bytes"
# line, so a gate that skipped its comparison fails too. Every cargo
# invocation runs under a hard `timeout 600`: a wedged socket or a hung sweep
# must fail the job, not hang it.
#
#   scripts/smoke-twice.sh <exp>
#
# Options, as environment variables (empty = off):
#   SMOKE_TESTS      `;`-separated `cargo test --release` argument lists to
#                    run first, e.g. "-p tsa-event;-p tsa-core --test fault_twin"
#   SMOKE_BUDGET     wall-clock seconds the first run may take (the binary is
#                    pre-built, so this times the experiment, not rustc)
#   SMOKE_THREADS    "A,B": TSA_THREADS of the first and the second run
#                    (default "2,2"; different values check thread invariance)
#   SMOKE_COMMITTED  non-empty: the first artifact must also match the
#                    committed BENCH_<exp>.json
#
# Leaves the first run's artifact at BENCH_<exp>.smoke.json for upload.
set -euo pipefail

exp="${1:?usage: smoke-twice.sh <exp>}"
threads="${SMOKE_THREADS:-2,2}"
artifact="BENCH_${exp}.json"

if [ -n "${SMOKE_TESTS:-}" ]; then
  IFS=';' read -ra suites <<<"$SMOKE_TESTS"
  for suite in "${suites[@]}"; do
    # shellcheck disable=SC2086  # the suite is an argument list
    TSA_THREADS=2 timeout 600 cargo test --release $suite -q
  done
fi

timeout 600 cargo build --release -p tsa-bench --bin "$exp"

# <dir> <threads> <baseline or empty>: one compared run; with a baseline it
# is seeded into <dir> and the run must report a match against it.
run() {
  rm -rf "$1"
  mkdir -p "$1"
  if [ -n "$3" ]; then
    cp "$3" "$1/$artifact"
  fi
  TSA_THREADS="$2" timeout 600 cargo run --release -p tsa-bench --bin "$exp" -- \
    --smoke --compare --out "$1" | tee "$1/stdout.log"
  if [ -n "$3" ]; then
    grep -q "fresh artifact matches the committed bytes" "$1/stdout.log"
  fi
}

start=$(date +%s)
run smoke-a "${threads%,*}" "${SMOKE_COMMITTED:+$artifact}"
elapsed=$(( $(date +%s) - start ))
echo "$exp --smoke: ${elapsed}s"
if [ -n "${SMOKE_BUDGET:-}" ]; then
  test "$elapsed" -le "$SMOKE_BUDGET"
fi
cp "smoke-a/$artifact" "BENCH_${exp}.smoke.json"
run smoke-b "${threads#*,}" "BENCH_${exp}.smoke.json"
