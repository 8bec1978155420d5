#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the loop every
# performance PR runs before it claims (or rules out) a move.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload>
#                          [--pairs N] [--seed S] [--seconds T] [--trace 0|1]
#
# Each side is built and run by its own benchmark/run.sh, into its own
# <checkout>/target/benchmark: CARGO_TARGET_DIR is unset on purpose, two
# checkouts sharing a target dir silently run each other's binaries. Odd
# pairs run the parent first, even pairs the change. Prints every run, then
# per side the median [q1-q3] and the min and max of the five end-to-end
# metrics, the pairs the change won, the change/parent median ratio with
# its base, whether the change shows a gain (won >= 9/10 of the pairs,
# medians further apart than the parent's interquartile range), and
# whether the sides are separated (every change run better than every
# parent run). Exits 1 on an incorrect or unpinned run. Defaults: 10
# pairs, seed 1, 10 s (BENCHMARK.json's run length), the dark pass
# (--trace 0). --trace 1 runs the traced pass instead and compares what it
# measures of the host: telemetry.overhead_share (lower),
# bench.host_ops_per_s (higher) and bench.host_allocs_per_op (lower).
# Nothing else should run on the machine meanwhile.
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
pairs=10 seed=1 seconds=10 trace=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        *) usage ;;
    esac
    shift 2
done

# name:which way is better: the dark pass's five in the order of
# BENCHMARK.json's `end_to_end`, or the traced pass's host measures.
case "$trace" in
    0) metrics="setup_s:lower ref_ops_per_s:higher ref_p50_us:lower ref_cpu_us_per_op:lower host_peak_rss_mb:lower" ;;
    1) metrics="telemetry.overhead_share:lower bench.host_ops_per_s:higher bench.host_allocs_per_op:lower" ;;
    *) usage ;;
esac
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run_side <label> <checkout> <pair>: one pass; appends "label pair v1..v5".
run_side() {
    local out result row="$1 $3" m
    out=$(cd "$2" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
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

echo "# $workload seed=$seed seconds=$seconds pairs=$pairs trace=$trace"
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

# quantiles <side> <col>: "median q1 q3 n min max" of one side's runs, by
# linear interpolation between order statistics.
quantiles() {
    awk -v side="$1" -v col="$2" '$1 == side { print $col }' "$runs" | sort -g |
        awk '
            function quantile(p,    at, lo, hi) {
                at = (NR - 1) * p + 1
                lo = int(at)
                hi = lo < NR ? lo + 1 : lo
                return v[lo] + (at - lo) * (v[hi] - v[lo])
            }
            { v[NR] = $1 }
            END {
                printf "%.17g %.17g %.17g %d %.17g %.17g\n",
                    quantile(0.5), quantile(0.25), quantile(0.75), NR, v[1], v[NR]
            }'
}

# Per metric: each side's median [q1-q3] and min and max, the pairs won (a
# pair is won by the side whose value is strictly better, ties to neither),
# the change's median as a ratio of the parent's with that base, the gain
# verdict (the change won at least 9 in 10 pairs and its median is better
# than the parent's by more than the parent's interquartile range), and
# whether the sides are separated (the change's worst run is better than
# the parent's best).
col=3
for m in $metrics; do
    read -r pmed pq1 pq3 pn pmin pmax <<<"$(quantiles parent "$col")"
    read -r cmed cq1 cq3 cn cmin cmax <<<"$(quantiles change "$col")"
    printf "%-24s %-6s median %.6g [%.6g-%.6g] min %.6g max %.6g n=%d\n" \
        "${m%%:*}" parent "$pmed" "$pq1" "$pq3" "$pmin" "$pmax" "$pn"
    printf "%-24s %-6s median %.6g [%.6g-%.6g] min %.6g max %.6g n=%d\n" \
        "${m%%:*}" change "$cmed" "$cq1" "$cq3" "$cmin" "$cmax" "$cn"
    awk -v col="$col" -v better="${m##*:}" -v name="${m%%:*}" \
        -v pmed="$pmed" -v pq1="$pq1" -v pq3="$pq3" -v cmed="$cmed" \
        -v pmin="$pmin" -v pmax="$pmax" -v cmin="$cmin" -v cmax="$cmax" '
        function si(x,    a) {
            a = x < 0 ? -x : x
            if (a >= 1e6) return sprintf("%.4g M", x / 1e6)
            if (a >= 1e3) return sprintf("%.4g k", x / 1e3)
            return sprintf("%.4g", x)
        }
        { v[$1, $2] = $col; if ($2 > n) n = $2 }
        END {
            for (i = 1; i <= n; i++) {
                d = v["change", i] - v["parent", i]
                if (better == "lower") d = -d
                if (d > 0) wins++; else if (d < 0) losses++
            }
            printf "%-24s change wins %d, loses %d of %d pairs\n", name, wins, losses, n
            if (pmed != 0) printf "%-24s change/parent %.3g× of %s\n", name, cmed / pmed, si(pmed)
            else printf "%-24s change/parent n/a (parent median 0)\n", name
            gap = better == "lower" ? pmed - cmed : cmed - pmed
            gain = wins * 10 >= n * 9 && gap > pq3 - pq1
            printf "%-24s verdict: %s (won %d/%d, needs 9/10; median gap %s vs parent IQR %s)\n",
                name, gain ? "gain" : "no gain", wins, n, si(gap), si(pq3 - pq1)
            separated = better == "lower" ? cmax < pmin : cmin > pmax
            printf "%-24s separated: %s\n", name, separated ? "yes" : "no"
        }' "$runs"
    col=$((col + 1))
done
