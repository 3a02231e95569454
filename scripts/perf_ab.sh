#!/usr/bin/env bash
# Same-host, interleaved A/B of the simulator benchmark (`perfbench/`)
# between a base revision and the working tree.
#
# Usage:
#   scripts/perf_ab.sh <base-rev> [rounds] [seconds] [workloads...]
#
#   base-rev   any git revision (commit, tag, branch, HEAD~1, ...)
#   rounds     runs per side and workload (default 5)
#   seconds    perfbench --seconds per run (default 10)
#   workloads  perfbench workloads (default: ramp steady-small steady-large)
#
# The base revision is exported with `git archive` into a temporary
# directory (the repository's .git is only read), and perfbench is built
# there and in the working tree, each into its own CARGO_TARGET_DIR,
# release profile, --offline. The two binaries then run interleaved: per
# round and workload one run of each, base first in odd rounds and change
# first in even rounds, so slow drift on a shared host hits both sides
# alike. Every run is untraced (--trace 0) at the default seed, so it also
# checks the figure digests.
#
# The report lists, per workload and end-to-end metric, every run's value
# for each side, the medians, and the change/base ratio of the medians.
# The script exits non-zero if a build fails or any run reports
# "correct": false or "failed" > 0.
#
# It is a tool for measuring a change, not a CI step: a useful A/B takes
# minutes and still needs several rounds to beat host noise.

set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '5,11p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
BASE_REV="$1"
ROUNDS="${2:-5}"
SECONDS_PER_RUN="${3:-10}"
shift $(($# < 3 ? $# : 3))
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    WORKLOADS=(ramp steady-small steady-large)
fi

cd "$(dirname "$0")/.."
BASE_SHA=$(git rev-parse --verify "$BASE_REV^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# perfbench refuses to start with any IVL_* variable set.
for var in $(compgen -e | grep '^IVL_' || true); do
    unset "$var"
done

echo "# base   $BASE_REV ($BASE_SHA)" >&2
echo "# change working tree of $(git rev-parse --short HEAD)" >&2
mkdir "$WORK/base"
git archive "$BASE_SHA" | tar -x -C "$WORK/base"
build() {
    echo "# building $1" >&2
    CARGO_TARGET_DIR="$WORK/target-$1" cargo build --release --offline -q \
        --manifest-path "$2/perfbench/Cargo.toml"
}
build base "$WORK/base"
build change "$(pwd)"

RESULTS="$WORK/results.tsv"
: >"$RESULTS"
run() { # side round workload
    local line
    line=$("$WORK/target-$1/release/perfbench" --workload "$3" \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\t%s\n' "$3" "$1" "$2" "$line" >>"$RESULTS"
    echo "# round $2 $3 $1 done" >&2
}
for round in $(seq 1 "$ROUNDS"); do
    for workload in "${WORKLOADS[@]}"; do
        if [ $((round % 2)) -eq 1 ]; then
            run base "$round" "$workload"
            run change "$round" "$workload"
        else
            run change "$round" "$workload"
            run base "$round" "$workload"
        fi
    done
done

python3 - "$RESULTS" <<'EOF'
import json
import statistics
import sys

METRICS = ["sim_accesses_per_s", "wall_s", "setup_s", "peak_rss_mb"]
runs = {}
bad = []
for row in open(sys.argv[1]):
    workload, side, rnd, line = row.rstrip("\n").split("\t", 3)
    try:
        result = json.loads(line)
    except ValueError:
        bad.append(f"{workload} {side} round {rnd}: no result line")
        continue
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        bad.append(f"{workload} {side} round {rnd}: correct={result.get('correct')} "
                   f"failed={result.get('failed')}")
    runs.setdefault(workload, {}).setdefault(side, []).append(result["metrics"])


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


for workload, sides in runs.items():
    print(f"== {workload}")
    for metric in METRICS:
        vals = {s: [m[metric]["value"] for m in sides.get(s, [])] for s in ("base", "change")}
        if not vals["base"] or not vals["change"]:
            continue
        med = {s: statistics.median(v) for s, v in vals.items()}
        ratio = med["change"] / med["base"] if med["base"] else float("nan")
        print(f"  {metric}")
        for s in ("base", "change"):
            print(f"    {s:<6} median {fmt(med[s]):>10}   runs " + " ".join(fmt(v) for v in vals[s]))
        print(f"    change/base {ratio:.3f}")
if bad:
    print("FAIL: runs that did not check out:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
EOF
