#!/usr/bin/env bash
# The perf ledger: every virtual-time number CI can afford to re-run is
# committed at the repo root and diffed here, exactly — virtual time is
# deterministic, so any moved line is a behaviour change. Takes no
# arguments; ~65 s warm on 2 cores, ~40 s of it the benchmark. The 20
# root files are
#
#   BENCH_<target>.json        17 bench target results, host block stripped;
#   BENCH_workloads_s<S>.json  examples/benchmark --all at seeds 2012 and
#                              2013: each workload's outcome and its 60
#                              virtual-clock metrics (no host rows);
#   BENCH_trace_smoke.md5      the digest of the exported smoke trace
#                              (`md5sum -c BENCH_trace_smoke.md5` after a run).
#
# Fails on
#
#   MOVED    an emitted file differs from the root copy (diff -u printed),
#   NEW      an emitted file has no root copy,
#   MISSING  a root file nothing emitted,
#
# and on any `checks` entry that is `false`. A change that *means* to move
# virtual time accepts the new numbers with the `cp` line printed on
# failure; `git log -p -- 'BENCH_*'` is the trajectory.
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")/.."

out="$(pwd)/target/ledger"
rm -rf "$out"
mkdir -p "$out/raw"

# The one list: "<bench target> [args]". The six extension benches run at
# --smoke scale (7 files); the ten paper targets that finish in < 10 s
# run at their published scale. mm_paper (the five MM reports, fig3-fig6
# and table4: ~3 min at published scale) has no smoke size yet and is not
# in the ledger.
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
# Named from the root, so `md5sum -c BENCH_trace_smoke.md5` checks a run by hand.
md5sum target/ledger/trace_smoke.json >"$out/BENCH_trace_smoke.md5"

bad=0
for raw in "$out"/raw/BENCH_*.json; do
    grep -q '^  "host": {$' "$raw" || { echo "FAIL: $(basename "$raw") is missing its host footer"; bad=1; }
    awk -f scripts/strip_host.awk "$raw" >"$out/$(basename "$raw")"
done

# The benchmark's five workloads. The rows come from its traced pass, not
# from the timed repetitions; --seconds 0.3 keeps enough CPU ticks in the
# timed window for --trace 1 to read its system share (a one-repetition
# run can see none and fail). One JSON array per seed: each --out file
# without "smoke" and without any host-clock metric.
for seed in 2012 2013; do
    echo "==> ledger: examples/benchmark --all --seed $seed"
    cargo run --release --quiet --manifest-path examples/benchmark/Cargo.toml -- \
        --all --trace 1 --seconds 0.3 --seed "$seed" --out "$out/workloads_s$seed" \
        </dev/null >"$out/workloads_s$seed.log" 2>&1 || { cat "$out/workloads_s$seed.log"; exit 1; }
    awk '
        FNR == 1 { printf "%s", NR == 1 ? "[\n" : ",\n" }
        /^  "smoke": / { next }
        /^    "/ {
            if (index($0, "\"clock\": \"virtual\"")) { sub(/,$/, ""); printf "%s%s", sep, $0; sep = ",\n" }
            next
        }
        /^  }$/ { print ""; sep = "" }
        /^}$/ { printf "}"; next }
        { print }
        END { print "\n]" }
    ' "$out/workloads_s$seed"/*.json >"$out/BENCH_workloads_s$seed.json"
done

for emitted in "$out"/BENCH_*; do
    f="$(basename "$emitted")"
    if [ ! -f "$f" ]; then
        echo "NEW: $f is emitted but not committed at the root"
        bad=1
    elif ! diff -u "$f" "$emitted"; then
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
    ' "$emitted")"
    if [ -n "$failed" ]; then
        echo "FAIL: shape checks of $f did not pass:"
        echo "$failed"
        bad=1
    fi
done
for f in BENCH_*; do
    [ -f "$out/$f" ] || { echo "MISSING: $f is committed but nothing emitted it"; bad=1; }
done

if [ "$bad" -ne 0 ]; then
    echo "ledger: FAIL — to accept numbers that were meant to move:"
    echo "    cp target/ledger/BENCH_* . && git add 'BENCH_*'"
    exit 1
fi
echo "ledger: OK — $(ls BENCH_* | wc -l) committed files match, every shape check holds"
