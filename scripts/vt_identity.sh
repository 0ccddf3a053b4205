#!/usr/bin/env bash
# The one command to review a "no behaviour change" PR, in two stages.
#
# 1. Run the two-clock benchmark (examples/benchmark, all five workloads,
#    end to end + per layer) at a base commit and at the working tree,
#    compare the two result sets, and fail on any virtual-clock row that
#    is not `same`. Host-clock rows are printed with their verdicts but
#    never fail this script — they need the driver's repeated, alternated
#    runs to judge.
# 2. Run the six knobs-*on* `--smoke` bench targets (pipeline_overlap,
#    writeback_daemon, scrub, fan_in, degraded_mode, mgr_failover) at both
#    and diff every emitted BENCH_*.json with its host block stripped —
#    the only place scrub, repair and failover times are printed.
#
#   scripts/vt_identity.sh             # base = HEAD~1
#   scripts/vt_identity.sh <base-ref>  # any commit-ish
#   scripts/vt_identity.sh <base-ref> --reps 3   # extra args go to --all
#
# The base is checked out into a git worktree under target/ (removed on
# exit); both result sets stay in target/vt_identity/ for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
shift || true
root="$(pwd)/target/vt_identity"
tree="$root/base-tree"

git worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$root"
mkdir -p "$root"
git worktree add --quiet --detach "$tree" "$base"
trap 'git worktree remove --force "$tree"' EXIT

bench() { # <checkout> <args...>
    (cd "$1" && shift &&
        cargo run --release --quiet --manifest-path examples/benchmark/Cargo.toml -- "$@")
}

echo "==> benchmark --all at $base ($(git rev-parse --short "$base"))"
bench "$tree" --all --out "$root/base" "$@"
echo "==> benchmark --all at the working tree"
bench . --all --out "$root/head" "$@"

echo "==> compare (reference = $base, candidate = working tree)"
report="$(bench . --compare "$root/base" "$root/head" || true)"
echo "$report"
if grep -Eq 'MOVED|MISSING|NEW in the candidate' <<<"$report"; then
    echo "vt_identity: FAIL — the virtual clock moved against $base" >&2
    exit 1
fi
grep -q '^\(PASS\|FAIL\)$' <<<"$report" || {
    echo "vt_identity: FAIL — the comparison did not complete" >&2
    exit 1
}
echo "vt_identity: stage 1 OK — every virtual-clock row is identical to $base"

smoke() { # <checkout> <json-dir>
    local b
    for b in pipeline_overlap writeback_daemon scrub fan_in degraded_mode mgr_failover; do
        (cd "$1" && BENCH_JSON_DIR="$2" cargo bench -q -p bench --bench "$b" -- --smoke) \
            >"$2.$b.log" 2>&1 || { cat "$2.$b.log" >&2; return 1; }
    done
}

echo "==> knobs-on smoke benches at $base"
smoke "$tree" "$root/base-smoke"
echo "==> knobs-on smoke benches at the working tree"
smoke . "$root/head-smoke"

echo "==> diff every emitted bench JSON (host block stripped)"
moved=0
for f in $(cd "$root" && ls base-smoke head-smoke | grep '^BENCH_.*\.json$' | sort -u); do
    if [ ! -f "$root/base-smoke/$f" ] || [ ! -f "$root/head-smoke/$f" ]; then
        echo "MISSING on one side: $f"
        moved=1
    else
        # Through files, not process substitution: a failing awk must
        # abort the script, not compare two empty streams as equal.
        awk -f scripts/strip_host.awk "$root/base-smoke/$f" >"$root/base.stripped"
        awk -f scripts/strip_host.awk "$root/head-smoke/$f" >"$root/head.stripped"
        if ! diff -u "$root/base.stripped" "$root/head.stripped"; then
            echo "MOVED: $f"
            moved=1
        fi
    fi
done
if [ "$moved" -ne 0 ]; then
    echo "vt_identity: FAIL — a knobs-on smoke bench moved against $base" >&2
    exit 1
fi
echo "vt_identity: OK — benchmark rows and smoke bench JSONs are identical to $base"
