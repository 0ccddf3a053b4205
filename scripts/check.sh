#!/usr/bin/env bash
# Pre-PR gate: run this before pushing. Offline-friendly — everything it
# needs (including the vendored shims/ crates) lives in the workspace, so
# no network access is required.
#
#   scripts/check.sh          # fmt + clippy + full workspace test suite
#   scripts/check.sh --quick  # skip clippy (fmt + tests only)
#
# A PR that claims "no behaviour change" additionally runs
#
#   scripts/vt_identity.sh [base-ref]   # default HEAD~1
#
# which replays the two-clock benchmark (examples/benchmark --all) at the
# base commit and at the working tree and fails on any virtual-clock row
# that moved. It is not part of this gate: it takes minutes, and a PR that
# means to move virtual time must be allowed through here.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

# Every BENCH_*.json carries a "host" wall-clock block (host_seconds and
# friends) that varies run to run; expectation diffs compare everything
# *except* it (scripts/strip_host.awk, shared with vt_identity.sh).
strip_host() {
    awk -f scripts/strip_host.awk "$1"
}

echo "==> cargo fmt --check"
cargo fmt --all --check

if [ "$quick" -eq 0 ]; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo build --benches"
cargo build --benches -q --workspace

echo "==> pipeline_overlap smoke (serial baseline must match committed expectations)"
smoke_dir="$(pwd)/target/bench-json-smoke"
rm -rf "$smoke_dir"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench pipeline_overlap -- --smoke \
    --trace "$smoke_dir/trace_smoke.json"
diff -u crates/bench/expected/BENCH_pipeline_overlap_serial.json \
    <(strip_host "$smoke_dir/BENCH_pipeline_overlap_serial.json")

echo "==> exported trace must satisfy the Chrome trace-event schema (with causal flows + counter tracks)"
cargo run -q --release --example validate_trace -- --require-flows --require-counters \
    "$smoke_dir/trace_smoke.json"

echo "==> offline critical-path report must parse the exported trace"
cargo run -q --release --example trace_report -- "$smoke_dir/trace_smoke.json"

echo "==> causal critical-path attribution must match the committed expectation"
diff -u crates/bench/expected/BENCH_pipeline_overlap_critpath.json \
    <(strip_host "$smoke_dir/BENCH_pipeline_overlap_critpath.json")

echo "==> writeback_daemon smoke (defaults-off must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench writeback_daemon -- --smoke
diff -u crates/bench/expected/BENCH_writeback_daemon_serial.json \
    <(strip_host "$smoke_dir/BENCH_writeback_daemon_serial.json")

echo "==> write-back daemon counters must appear in the obs footer"
for c in fuse.bg_flushes fuse.bg_writeback_bytes fuse.throttled_writes \
         fuse.clean_evictions fuse.scan_protected_hits; do
    grep -q "\"$c\"" "$smoke_dir/BENCH_writeback_daemon.json" \
        || { echo "FAIL: counter $c missing from the obs footer"; exit 1; }
done

echo "==> scrub smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench scrub -- --smoke
diff -u crates/bench/expected/BENCH_scrub_serial.json \
    <(strip_host "$smoke_dir/BENCH_scrub_serial.json")

echo "==> injected bit rot must be detected, repaired and never served"
for c in rotted_crc_mismatches rotted_scrub_repairs scrub_repairs; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_scrub.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_scrub.json"
        exit 1
    fi
done

echo "==> integrity counters must appear in the obs footer"
for c in store.crc_mismatches store.scrub_passes store.scrub_repairs; do
    grep -q "\"$c\"" "$smoke_dir/BENCH_scrub.json" \
        || { echo "FAIL: counter $c missing from the obs footer"; exit 1; }
done

echo "==> fan_in smoke (shards=1 must be bit-identical to the serial manager)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench fan_in -- --smoke
diff -u crates/bench/expected/BENCH_fan_in_serial.json \
    <(strip_host "$smoke_dir/BENCH_fan_in_serial.json")
if ! grep -Eq '"store.loc_cache_hits": [1-9]' "$smoke_dir/BENCH_fan_in_serial.json"; then
    echo "FAIL: leased hot path never hit the location cache"
    exit 1
fi

echo "==> degraded_mode smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench degraded_mode -- --smoke
diff -u crates/bench/expected/BENCH_degraded_mode_serial.json \
    <(strip_host "$smoke_dir/BENCH_degraded_mode_serial.json")

echo "==> erasure coding must encode, reconstruct and repair (never serve wrong bytes)"
for c in ec_parity_encodes ec_parity_bytes ec_degraded_reconstructs ec_parity_repairs \
         rs_sweep_reconstructs; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_degraded_mode.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_degraded_mode.json"
        exit 1
    fi
done

echo "==> mgr_failover smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench mgr_failover -- --smoke
diff -u crates/bench/expected/BENCH_mgr_failover_serial.json \
    <(strip_host "$smoke_dir/BENCH_mgr_failover_serial.json")

echo "==> manager failover must lose zero acked writes and report its takeover"
for c in mgr_failovers journal_replays time_to_failover_us idle_journal_records; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_mgr_failover.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_mgr_failover.json"
        exit 1
    fi
done

echo "==> no shape check of any emitted bench JSON may be false"
# One gate for every check a bench records (zero lost writes, m=0 and
# shards=1 identities, repair closes the degraded window, ...): a check
# added to a bench is gated here without being listed.
for f in "$smoke_dir"/BENCH_*.json; do
    failed="$(awk '
        /^  "checks": \{$/ { inside = 1; next }
        inside && /^  \},?$/ { inside = 0 }
        inside && /: false,?$/ { print }
    ' "$f")"
    if [ -n "$failed" ]; then
        echo "FAIL: shape checks of $(basename "$f") did not pass:"
        echo "$failed"
        exit 1
    fi
done

echo "==> every emitted bench JSON must carry a host wall-clock footer"
for f in "$smoke_dir"/BENCH_*.json; do
    grep -q '"host": {' "$f" \
        || { echo "FAIL: $(basename "$f") is missing its host footer"; exit 1; }
done

echo "==> micro host-speed floors (simulated bytes, engine hand-offs, stream writes and fetches per host second)"
# On one CPU, like examples/benchmark: only one engine thread runs at a
# time, and unpinned every hand-off is a cross-core wake whose cost on a
# small VM swings 5x with what the other core has just been doing.
pin=""
if command -v taskset >/dev/null; then
    pin="taskset -c $(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')"
fi
BENCH_JSON_DIR="$smoke_dir" $pin cargo bench -q -p bench --bench micro -- --host-speed
micro_floor() { # <key in the host block> <committed floor> <what it counts>
    local rate
    rate="$(awk -F': ' -v key="\"$1\"" 'index($0, key) { gsub(/,/, "", $2); print $2; exit }' \
        "$smoke_dir/BENCH_micro.json")"
    if [ -z "$rate" ] || [ "$rate" -lt "$2" ]; then
        echo "FAIL: micro host speed ${rate:-?} $3/host-second is below the $2 floor"
        exit 1
    fi
    echo "    micro: ${rate} $3/host-second (floor $2)"
}
# 140 MB of simulated traffic per host second — 2x the pre-bitalloc
# baseline (70.9 MB/hs, EXPERIMENTS.md) and ~8x below the rate measured
# after the allocator/CRC-splice work, so the gate catches an
# O(n)-per-event regression without tripping on machine variance.
micro_floor bytes_per_host_second 140000000 "simulated bytes"
# 100 000 baton hand-offs per host second in the 128-process barrier +
# yield storm — 2-3x below the rate measured with one wake per hand-off
# (ISSUE 15, EXPERIMENTS.md) and 20x above the ~5 000/s of the notify_all
# herd it replaced, so a wake that scales with the number of sleeping
# processes fails here.
micro_floor engine_handoffs_per_host_second 100000 "engine hand-offs"
# The payload path (ISSUE 16, EXPERIMENTS.md "Host speed"). Full-chunk
# stream writes: 1.5 GB per host second, between the 1.06 GB/hs of the
# one-register digest and the 2.3 GB/hs measured with four lanes — the
# digest is ~60 % of that phase, so the usual 3x margin would sit below
# the rate this floor exists to rule out. Whole-chunk fetches: 150 GB/hs,
# ~3.5x below the 550 GB/hs of a shared payload (a count bump per fetch)
# and 7x above the 19.5 GB/hs of a 256 KiB copy per fetch.
micro_floor stream_write_bytes_per_host_second 1500000000 "stream-written bytes"
micro_floor read_bytes_per_host_second 150000000000 "fetched bytes"

echo "All checks passed."
