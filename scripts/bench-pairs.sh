#!/usr/bin/env bash
# Alternating parent/change passes of one benchmark workload — the
# measurement a PR that claims a gain has to show: at least ten pairs,
# alternating which side runs first, each side's median, the parent's
# quartiles and the pairs the change won.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [seed=29]
#
# Run it from the repository root. The parent is checked out with
# `git worktree add` into $BENCH_PAIRS_DIR/parent (default
# target/bench-pairs; a checkout of <parent-ref> that is already there is
# reused) and the change is the working tree as it is; each side is built
# once into its own CARGO_TARGET_DIR next to it, and every pass is the
# command BENCHMARK.json names (`--seconds` from its `run_seconds`,
# `--trace 0`), run from the side's own root.
#
# Prints, per end-to-end metric: both medians, the parent's quartiles and
# relative spread `(q3 - q1) / median`, the pairs won/lost (ties count for
# neither) and the verdict, the first that holds of:
#   REGRESSION  the change's median is worse by more than the metric's bound;
#   unresolved  the parent's spread exceeds the bound, and not every change
#               run is better than every parent run;
#   gain        ten or more pairs, at least 9/10 of them won, the medians
#               differ by more than the parent's interquartile distance, and
#               no more change steps failed than parent steps;
#   -           otherwise.
# Exits non-zero if any pair disagrees on `det_digest` or the `exact`
# counts, or a pass is not `correct`: the two sides must run the same
# program to the same answers before their clocks are compared.
set -euo pipefail

usage() { sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"; }
case "${1:-}" in
  -h | --help) usage; exit 0 ;;
esac
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  usage >&2
  exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" seed="${4:-29}"
[ -f BENCHMARK.json ] || { echo "bench-pairs: run from the repository root" >&2; exit 2; }

work="${BENCH_PAIRS_DIR:-target/bench-pairs}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
commit="$(git rev-parse --verify "$ref^{commit}")"
if [ "$(git -C "$work/parent" rev-parse HEAD 2>/dev/null || true)" != "$commit" ]; then
  git worktree remove --force "$work/parent" 2>/dev/null || true
  git worktree add --detach "$work/parent" "$commit"
fi

build() { # <root> <target-dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --locked --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/parent" "$work/parent-target"
build "$PWD" "$work/change-target"

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
pass() { # <side> <root> <pair>
  (cd "$2" && "$work/$1-target/release/tsa-benchmark" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    | tail -n 2 >"$work/$1.$3.out"
}
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    pass parent "$work/parent" "$pair"
    pass change "$PWD" "$pair"
  else
    pass change "$PWD" "$pair"
    pass parent "$work/parent" "$pair"
  fi
  echo "pair $pair/$pairs done" >&2
done

python3 - "$work" "$pairs" "$workload" "$seed" "$commit" <<'PY'
import json, statistics, sys

work, pairs, workload, seed, commit = sys.argv[1:6]
pairs = int(pairs)

def read(side, pair):
    detail, result = open(f"{work}/{side}.{pair}.out").read().splitlines()
    return json.loads(detail.removeprefix("detail: ")), json.loads(result)

runs = [(read("parent", p), read("change", p)) for p in range(1, pairs + 1)]
print(f"{workload}, seed {seed}, {pairs} pairs, parent {commit[:7]}")

same = True
for pair, ((p_detail, p_result), (c_detail, c_result)) in enumerate(runs, 1):
    for side, result in (("parent", p_result), ("change", c_result)):
        if not result["correct"]:
            print(f"pair {pair}: the {side} pass is not correct")
            same = False
    if p_detail["comparable"] and c_detail["comparable"] and p_detail != c_detail:
        print(f"pair {pair}: parent {p_detail} != change {c_detail}")
        same = False
detail = runs[0][0][0]
print(f"det_digest/exact agree on every pair: {'yes' if same else 'NO'}"
      f" ({detail.get('det_digest')}, {detail.get('exact')})")
failed = {}
for side, index in (("parent", 0), ("change", 1)):
    failed[side] = sum(run[index][1]["failed"] for run in runs)
    attempted = sum(run[index][1]["attempted"] for run in runs)
    print(f"{side}: {failed[side]} of {attempted} steps failed")

print(f"{'metric':<18} {'parent':>10} {'[q1':>10} {'q3]':>10} {'spread':>7}"
      f" {'change':>10} {'delta':>8} {'won':>4} {'lost':>4}  verdict")
for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [run[0][1]["metrics"][name]["value"] for run in runs]
    change = [run[1][1]["metrics"][name]["value"] for run in runs]
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    won = sum(better(c, p) for p, c in zip(parent, change))
    lost = sum(better(p, c) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if pairs > 1 else (p_med,) * 3
    delta = (c_med - p_med) / p_med if p_med else 0.0
    spread = (q3 - q1) / p_med if p_med else 0.0
    verdict = "-"
    if (-delta if higher else delta) > metric["bound"]:
        verdict = "REGRESSION"
    elif spread > metric["bound"] and not all(
            better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    elif (pairs >= 10 and better(c_med, p_med) and won * 10 >= 9 * pairs
            and abs(c_med - p_med) > q3 - q1
            and failed["change"] <= failed["parent"]):
        verdict = "gain"
    print(f"{name:<18} {p_med:>10.3f} {q1:>10.3f} {q3:>10.3f} {spread:>7.1%}"
          f" {c_med:>10.3f} {delta:>+8.1%} {won:>4} {lost:>4}  {verdict}")
sys.exit(0 if same else 1)
PY
