#!/usr/bin/env bash
# The one command to review a "no behaviour change" PR against the
# two-clock benchmark: run examples/benchmark (all five workloads, end to
# end + per layer) at a base commit and at the working tree, compare the
# two result sets, and fail on any virtual-clock row that is not `same`.
# Host-clock rows are printed with their verdicts but never fail this
# script — they need the driver's repeated, alternated runs to judge.
#
# The bench targets need no base checkout: their numbers are committed at
# the root (BENCH_*.json) and scripts/ledger.sh diffs them exactly, so
# `git diff <base> -- 'BENCH_*.json'` is the other half of the review.
#
#   scripts/vt_identity.sh             # base = HEAD~1
#   scripts/vt_identity.sh <base-ref>  # any commit-ish
#   scripts/vt_identity.sh <base-ref> --reps 3   # extra args go to --all
#
# The base is checked out into a git worktree under target/ — or, where
# `git worktree` is not available, into a shared clone there — removed on
# exit; both result sets stay in target/vt_identity/ for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
shift || true
root="$(pwd)/target/vt_identity"
. scripts/base_tree.sh
checkout_base "$root" "$base"

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
echo "vt_identity: OK — every virtual-clock row is identical to $base"
