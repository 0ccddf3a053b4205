#!/usr/bin/env bash
# The perf ledger: every bench number CI can afford to re-run is committed
# at the repo root as BENCH_<name>.json (host block stripped) and diffed
# here, exactly — virtual time is deterministic, so any moved line is a
# behaviour change. Takes no arguments; ~1 min warm. Fails on
#
#   MOVED    an emitted file differs from the root copy (diff -u printed),
#   NEW      an emitted file has no root copy,
#   MISSING  a root file no target emitted,
#
# and on any `checks` entry that is `false`. A change that *means* to move
# virtual time accepts the new numbers with the `cp` line printed on
# failure; `git log -p -- 'BENCH_*.json'` is the trajectory.
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")/.."

out="$(pwd)/target/ledger"
rm -rf "$out"
mkdir -p "$out/raw"

# The one list: "<bench target> [args]". The six extension benches run at
# --smoke scale (13 files); the ten paper targets that finish in < 10 s
# run at their published scale. The five MM targets (fig3-fig6, table4:
# ~8 min together) have no smoke size yet and are not in the ledger.
# pipeline_overlap also exports its Chrome trace for check.sh to validate.
targets="
pipeline_overlap --smoke --trace $out/trace_smoke.json
writeback_daemon --smoke
scrub --smoke
fan_in --smoke
degraded_mode --smoke
mgr_failover --smoke
table1_devices
fig2_stream_triad
table3_stream_cache
table5_mm_tiles
table6_qsort
table7_write_opt
ckpt_linking
ablate_cache_size
ablate_chunk_size
ablate_striping
"

while read -r target args; do
    [ -n "$target" ] || continue
    echo "==> ledger: $target $args"
    # shellcheck disable=SC2086  # $args is a word list
    BENCH_JSON_DIR="$out/raw" cargo bench -q -p bench --bench "$target" -- $args \
        </dev/null >"$out/$target.log" 2>&1 || { cat "$out/$target.log"; exit 1; }
done <<<"$targets"

bad=0
for raw in "$out"/raw/BENCH_*.json; do
    f="$(basename "$raw")"
    grep -q '^  "host": {$' "$raw" || { echo "FAIL: $f is missing its host footer"; bad=1; }
    awk -f scripts/strip_host.awk "$raw" >"$out/$f"
    if [ ! -f "$f" ]; then
        echo "NEW: $f is emitted but not committed at the root"
        bad=1
    elif ! diff -u "$f" "$out/$f"; then
        echo "MOVED: $f"
        bad=1
    fi
    # One gate for every check a bench records (zero lost writes, m=0 and
    # shards=1 identities, repair closes the degraded window, ...): a check
    # added to a bench is gated here without being listed.
    failed="$(awk '
        /^  "checks": \{$/ { inside = 1; next }
        inside && /^  \},?$/ { inside = 0 }
        inside && /: false,?$/ { print }
    ' "$out/$f")"
    if [ -n "$failed" ]; then
        echo "FAIL: shape checks of $f did not pass:"
        echo "$failed"
        bad=1
    fi
done
for f in BENCH_*.json; do
    [ -f "$out/$f" ] || { echo "MISSING: $f is committed but no target emitted it"; bad=1; }
done

if [ "$bad" -ne 0 ]; then
    echo "ledger: FAIL — to accept numbers that were meant to move:"
    echo "    cp target/ledger/BENCH_*.json . && git add 'BENCH_*.json'"
    exit 1
fi
echo "ledger: OK — $(ls BENCH_*.json | wc -l) committed files match, every shape check holds"
