#!/usr/bin/env bash
# The alternated-pair protocol of a host-time claim (choosing-metrics §8):
# build examples/benchmark at a base commit and at the working tree, run
# one workload on both, N times, alternating which side goes first, and
# print per side the median [q1, q3] of host_wall_s / setup_s /
# host_peak_rss_mib, the pairs the working tree won on host_wall_s, and —
# from /proc/$$/stat, so it needs nothing the sandbox lacks — each run's
# minor page faults and user / system CPU seconds. The last three are how
# a loss that lives in the kernel (an allocator trimming and regrowing its
# heap after a block size changed) shows up while user time still falls.
#
#   scripts/pairs.sh <base-ref> <workload> [pairs]       # default 10 pairs
#   PAIRS_ARGS="--seed 2012 --reps 14" scripts/pairs.sh HEAD~1 rand_page_rw 6
#
# PAIRS_ARGS replaces the benchmark options (default: the held-out seed
# and the driver's run length, "--seed 2013 --seconds 15"); pass --reps N
# to compare fault counts, which otherwise scale with how many repetitions
# fit in the run. The base is checked out under target/pairs/ as a git
# worktree, or as a shared clone where `git worktree add` is not
# available, and removed on exit; every run's result file stays there.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || {
    echo "usage: scripts/pairs.sh <base-ref> <workload> [pairs]" >&2
    exit 2
}
base="$1"
workload="$2"
pairs="${3:-10}"
read -r -a bench_args <<<"${PAIRS_ARGS:---seed 2013 --seconds 15}"
root="$(pwd)/target/pairs"
tree="$root/base-tree"
git worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$root"
mkdir -p "$root"
if git worktree add --quiet --detach "$tree" "$base" 2>/dev/null; then
    trap 'git worktree remove --force "$tree"' EXIT
else
    git clone --quiet --shared . "$tree"
    git -C "$tree" checkout --quiet --detach "$(git rev-parse "$base")"
    trap 'rm -rf "$tree"' EXIT
fi

build() { # <checkout> -> path of its benchmark binary
    (cd "$1" && cargo build --release --quiet --manifest-path examples/benchmark/Cargo.toml)
    echo "$1/examples/benchmark/target/release/benchmark"
}
echo "==> building the benchmark at $base ($(git rev-parse --short "$base")) and at the working tree"
base_bin="$(build "$tree")"
head_bin="$(build "$(pwd)")"

# cminflt, cutime, cstime of this shell: what its waited-for children have
# cost so far (fields 11, 16, 17; the comm field may hold spaces).
children() { sed 's/^.*) //' "/proc/$$/stat" | awk '{ print $9, $14, $15 }'; }
tick="$(getconf CLK_TCK)"

run() { # <side> <binary> <pair index>: one row in $root/<side>.tsv
    local before after json
    before="$(children)"
    json="$("$2" --workload "$workload" --trace 0 --out "$root/$1-$3" "${bench_args[@]}" | tail -n 1)"
    after="$(children)"
    grep -q '"correct": true' <<<"$json" && grep -q '"failed": 0,' <<<"$json" || {
        echo "pairs: $1 run $3 was not correct: $json" >&2
        exit 1
    }
    metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.e+-]*\).*/\1/p" <<<"$json"; }
    echo "$before $after" | awk -v tick="$tick" -v wall="$(metric host_wall_s)" \
        -v setup="$(metric setup_s)" -v rss="$(metric host_peak_rss_mib)" \
        '{ printf "%s\t%s\t%s\t%d\t%.2f\t%.2f\n", wall, setup, rss, $4 - $1, ($5 - $2) / tick, ($6 - $3) / tick }' \
        >>"$root/$1.tsv"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$base_bin" "$i"
        run head "$head_bin" "$i"
    else
        run head "$head_bin" "$i"
        run base "$base_bin" "$i"
    fi
    echo "    pair $i: base $(tail -n 1 "$root/base.tsv" | cut -f1) s, head $(tail -n 1 "$root/head.tsv" | cut -f1) s"
done

echo "==> $workload, ${bench_args[*]}, $pairs alternated pairs: median [q1, q3]"
summary() { # <side>
    local col=0 name
    printf '%-5s' "$1"
    for name in host_wall_s setup_s peak_rss_mib minor_faults user_s sys_s; do
        col=$((col + 1))
        cut -f"$col" "$root/$1.tsv" | sort -g | awk -v name="$name" '
            { v[NR] = $1 }
            function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
            END { f = name == "minor_faults" ? "%d" : "%.4g"; printf "  %s " f " [" f ", " f "]", name, q(0.5), q(0.25), q(0.75) }'
    done
    echo
}
summary base
summary head
paste "$root/base.tsv" "$root/head.tsv" | awk -v n="$pairs" '
    $7 < $1 { won++ } $7 > $1 { lost++ }
    END { printf "host_wall_s: the working tree won %d of %d pairs, lost %d\n", won, n, lost }'
