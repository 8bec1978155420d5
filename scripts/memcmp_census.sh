#!/usr/bin/env bash
# Counts the byte compares of one benchmark dark pass: how many memcmp/bcmp
# calls an op makes, how many of those compare zero bytes, and which code
# makes the zero-length ones (with --all: which code makes any of them).
#
#   scripts/memcmp_census.sh <workload> [seconds] [--all] [--max N]
#
# A zero-length compare is not free: a map lookup of the empty name passes
# Rust's dangling empty-string address (0x1), and glibc's EVEX memcmp took
# 100-150 ns for it on an AVX-512 host (docs/CONCURRENCY.md, "An empty name
# is not free"). The script builds a small LD_PRELOAD shim with cc, builds
# the benchmark with line tables into target/census (the checkout's own,
# git-ignored), runs one --trace 0 pass at seed 1 (default 2 s) under the
# shim and prints per op (the pass's `attempted`, set-up included) the
# calls, the zero-length calls, and the top zero-length callers resolved by
# addr2line; --all ranks the callers of every compare, whatever its length.
# --max N exits 1 when the calls per op exceed N, so a count can be kept,
# not only read. Run it from any directory; it measures the checkout it is
# in.
set -euo pipefail

usage() {
    awk 'NR > 1 { if (!sub(/^# ?/, "")) exit; print }' "${BASH_SOURCE[0]}" >&2
    exit 2
}
[ $# -ge 1 ] || usage
workload=$1 seconds=2 all=0 max=
shift
if [ $# -gt 0 ] && [[ $1 != --* ]]; then
    seconds=$1
    shift
fi
while [ $# -gt 0 ]; do
    case "$1" in
        --all) all=1 ;;
        --max)
            [ $# -ge 2 ] || usage
            max=$2
            shift
            ;;
        *) usage ;;
    esac
    shift
done
cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#include <stdlib.h>

typedef int (*cmp_fn)(const void *, const void *, size_t);
static cmp_fn real_memcmp, real_bcmp;
static unsigned long calls, zero, hits[1024];
static void *site[1024];
static int all; /* rank every caller, not only the zero-length ones */

static void count(size_t n, void *caller) {
    __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED);
    if (n) {
        if (!all) return;
    } else {
        __atomic_fetch_add(&zero, 1, __ATOMIC_RELAXED);
    }
    for (unsigned long i = 0, h = (unsigned long)caller >> 2; i < 1024; i++, h++) {
        void *seen = NULL;
        if (__atomic_compare_exchange_n(&site[h % 1024], &seen, caller, 0,
                __ATOMIC_RELAXED, __ATOMIC_RELAXED) || seen == caller) {
            __atomic_fetch_add(&hits[h % 1024], 1, __ATOMIC_RELAXED);
            return;
        }
    }
}

/* Used only before the constructor has found the real functions. */
static int bytewise(const unsigned char *a, const unsigned char *b, size_t n) {
    for (; n; n--, a++, b++) if (*a != *b) return *a - *b;
    return 0;
}

int memcmp(const void *a, const void *b, size_t n) {
    count(n, __builtin_return_address(0));
    return real_memcmp ? real_memcmp(a, b, n) : bytewise(a, b, n);
}

int bcmp(const void *a, const void *b, size_t n) {
    count(n, __builtin_return_address(0));
    return real_bcmp ? real_bcmp(a, b, n) : bytewise(a, b, n);
}

__attribute__((constructor)) static void find(void) {
    real_memcmp = (cmp_fn)dlsym(RTLD_NEXT, "memcmp");
    real_bcmp = (cmp_fn)dlsym(RTLD_NEXT, "bcmp");
    all = getenv("MEMCMP_CENSUS_ALL") != NULL;
}

/* "calls N", "zero N", then "site HITS FILE OFFSET" per caller ranked. */
__attribute__((destructor)) static void report(void) {
    const char *path = getenv("MEMCMP_CENSUS_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    fprintf(out, "calls %lu\nzero %lu\n", calls, zero);
    for (int i = 0; i < 1024; i++) {
        Dl_info info;
        if (site[i] && dladdr(site[i], &info) && info.dli_fname)
            fprintf(out, "site %lu %s %lx\n", hits[i], info.dli_fname,
                    (unsigned long)((char *)site[i] - (char *)info.dli_fbase));
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/shim.so" "$tmp/shim.c" -ldl

target=target/census
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
ranked=zero-length
[ "$all" = 1 ] && ranked=all && export MEMCMP_CENSUS_ALL=1
out=$(MEMCMP_CENSUS_OUT="$tmp/census" LD_PRELOAD="$tmp/shim.so" \
    "$target/release/afs-benchmark" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 2>/dev/null)
ops=$(sed -nE 's/.*"attempted": ([0-9]+).*/\1/p' <<<"${out##*$'\n'}")
[ -n "$ops" ] && [ "$ops" -gt 0 ] || { echo "no result object:" >&2; echo "$out" >&2; exit 1; }

echo "# $workload seconds=$seconds ops=$ops"
awk -v ops="$ops" '
    $1 == "calls" { printf "memcmp calls per op        %.3f\n", $2 / ops }
    $1 == "zero" { printf "zero-length calls per op   %.3f\n", $2 / ops }' "$tmp/census"
echo "# top $ranked callers: per op, function, the caller's source line"
awk '$1 == "site" { print $2, $3, $4 }' "$tmp/census" | sort -rn | head -8 |
    while read -r hits file offset; do
        # The return address follows the call: step back into it. With -i
        # the first line names the function and the last pair is the
        # outermost inlined frame, the line in the calling code.
        mapfile -t at < <(addr2line -f -C -i -e "$file" "$(printf '%x' $((0x$offset - 1)))")
        loc=${at[${#at[@]} - 1]}
        printf '%10.4f  %s  %s\n' "$(awk -v h="$hits" -v o="$ops" 'BEGIN { print h / o }')" \
            "${at[0]}" "${loc#"$PWD/"}"
    done
if [ -n "$max" ]; then
    awk -v ops="$ops" -v max="$max" '$1 == "calls" {
        per = $2 / ops
        if (per > max) { printf "memcmp calls per op %.3f exceed --max %s\n", per, max; exit 1 }
        printf "memcmp calls per op %.3f within --max %s\n", per, max
    }' "$tmp/census" >&2
fi
