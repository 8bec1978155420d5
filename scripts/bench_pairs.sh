#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the loop every
# performance PR runs before it claims (or rules out) a move.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload>
#                          [--pairs N] [--seed S] [--seconds T]
#
# Each side is built and run by its own benchmark/run.sh, into its own
# <checkout>/target/benchmark: CARGO_TARGET_DIR is unset on purpose, two
# checkouts sharing a target dir silently run each other's binaries. Odd
# pairs run the parent first, even pairs the change. Prints every run, then
# per side the median [q1-q3] of the five end-to-end metrics and the pairs
# the change won. Exits 1 on an incorrect or unpinned run. Defaults: 10
# pairs, seed 1, 10 s (BENCHMARK.json's run length); the dark pass only
# (--trace 0). Nothing else should run on the machine meanwhile.
set -euo pipefail

usage() {
    # The comment block above, minus the shebang.
    awk 'NR > 1 { if (!sub(/^# ?/, "")) exit; print }' "${BASH_SOURCE[0]}" >&2
    exit 2
}

[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
pairs=10 seed=1 seconds=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done

# name:which way is better, in the order of BENCHMARK.json's `end_to_end`.
metrics="setup_s:lower ref_ops_per_s:higher ref_p50_us:lower ref_cpu_us_per_op:lower host_peak_rss_mb:lower"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run_side <label> <checkout> <pair>: one pass; appends "label pair v1..v5".
run_side() {
    local out result row="$1 $3" m
    out=$(cd "$2" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
    result=${out##*$'\n'}
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"unpinned": false' <<<"$out"; then
        echo "$1 run of pair $3 is incorrect or unpinned:" >&2
        echo "$out" >&2
        exit 1
    fi
    for m in $metrics; do
        row+=" $(sed -E "s/.*\"${m%%:*}\": \{\"value\": ([^,}]+).*/\1/" <<<"$result")"
    done
    echo "$row" | tee -a "$runs"
}

echo "# $workload seed=$seed seconds=$seconds pairs=$pairs"
echo "# parent=$parent change=$change"
echo "# side pair $(sed -E 's/:(lower|higher)//g' <<<"$metrics")"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

# Median and quartiles by linear interpolation between order statistics;
# a pair is won by the side whose value is strictly better, ties to neither.
col=3
for m in $metrics; do
    for side in parent change; do
        awk -v side="$side" -v col="$col" '$1 == side { print $col }' "$runs" | sort -g |
            awk -v name="${m%%:*}" -v side="$side" '
                function quantile(p,    at, lo, hi) {
                    at = (NR - 1) * p + 1
                    lo = int(at)
                    hi = lo < NR ? lo + 1 : lo
                    return v[lo] + (at - lo) * (v[hi] - v[lo])
                }
                { v[NR] = $1 }
                END {
                    printf "%-18s %-6s median %.6g [%.6g-%.6g] n=%d\n", name, side,
                        quantile(0.5), quantile(0.25), quantile(0.75), NR
                }'
    done
    awk -v col="$col" -v better="${m##*:}" -v name="${m%%:*}" '
        { v[$1, $2] = $col; if ($2 > n) n = $2 }
        END {
            for (i = 1; i <= n; i++) {
                d = v["change", i] - v["parent", i]
                if (better == "lower") d = -d
                if (d > 0) wins++; else if (d < 0) losses++
            }
            printf "%-18s change wins %d, loses %d of %d pairs\n", name, wins, losses, n
        }' "$runs"
    col=$((col + 1))
done
