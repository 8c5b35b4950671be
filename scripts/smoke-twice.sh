#!/usr/bin/env bash
# Runs the CI-sized (`--smoke`) grid of one experiment binary twice, into two
# independent output directories, and requires the two artifacts to agree —
# the artifact-level determinism check the async, partition, byzantine, obs,
# transport and perf CI jobs share. Every cargo invocation runs under a hard
# `timeout 600`: a wedged socket or a hung sweep must fail the job, not hang it.
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
#   SMOKE_SECTION    compare only this top-level JSON subtree (the rest is
#                    wall-clock) and require its `all_checks_pass`, if present
#   SMOKE_COMMITTED  non-empty: the artifact must also equal the committed
#                    BENCH_<exp>.json
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

run() { # <dir> <threads>
  TSA_THREADS="$2" timeout 600 cargo run --release -p tsa-bench --bin "$exp" -- --smoke --out "$1"
}

start=$(date +%s)
run smoke-a "${threads%,*}"
elapsed=$(( $(date +%s) - start ))
echo "$exp --smoke: ${elapsed}s"
if [ -n "${SMOKE_BUDGET:-}" ]; then
  test "$elapsed" -le "$SMOKE_BUDGET"
fi
run smoke-b "${threads#*,}"

same() { # <file> <file>
  if [ -z "${SMOKE_SECTION:-}" ]; then
    cmp "$1" "$2"
  else
    python3 - "$1" "$2" "$SMOKE_SECTION" <<'PY'
import json, sys
a, b = (json.load(open(path))[sys.argv[3]] for path in sys.argv[1:3])
assert a.get('all_checks_pass', True), f'a pin failed in {sys.argv[1]}'
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    f'{sys.argv[3]} section differs between {sys.argv[1]} and {sys.argv[2]}'
print(f'{sys.argv[3]} sections identical (the rest is excluded by design)')
PY
  fi
}

same "smoke-a/$artifact" "smoke-b/$artifact"
if [ -n "${SMOKE_COMMITTED:-}" ]; then
  same "smoke-a/$artifact" "$artifact"
fi
cp "smoke-a/$artifact" "BENCH_${exp}.smoke.json"
