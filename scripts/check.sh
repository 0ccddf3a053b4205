#!/usr/bin/env bash
# Pre-PR gate: run this before pushing. Offline-friendly — everything it
# needs (including the vendored shims/ crates) lives in the workspace, so
# no network access is required.
#
#   scripts/check.sh          # fmt + clippy + full workspace test suite
#   scripts/check.sh --quick  # skip clippy (fmt + tests only)
#
# A PR that claims "no behaviour change" additionally runs
# scripts/vt_identity.sh [base-ref]: the two-clock benchmark at a base
# commit vs the working tree, minutes long, so not part of this gate.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> scripts parse"
for script in pairs.sh base_tree.sh vt_identity.sh; do bash -n "scripts/$script"; done

echo "==> fusemm and nvmalloc reach the store's data plane only through fetch_chunks / write_runs_batch"
# The per-chunk and byte-slice entry points are wrappers for benches, tests
# and the frozen benchmark: a client calling one has re-forked the data path.
# (`! grep ...` alone would not stop a `set -e` script: errexit ignores a negated status.)
! grep -rnE --exclude='*tests.rs' '\.(fetch_chunk|write_runs|write_pages|write_pages_batch)\(' \
    crates/fusemm/src crates/nvmalloc/src || exit 1

if [ "$quick" -eq 0 ]; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo build --benches"
cargo build --benches -q --workspace

echo "==> perf ledger (every committed BENCH_*.json must be re-emitted byte for byte, every shape check true)"
scripts/ledger.sh

echo "==> exported trace must satisfy the Chrome trace-event schema (with causal flows + counter tracks)"
cargo run -q --release --example validate_trace -- --require-flows --require-counters \
    target/ledger/trace_smoke.json

echo "==> offline critical-path report must parse the exported trace"
cargo run -q --release --example trace_report -- target/ledger/trace_smoke.json

echo "==> the frozen benchmark package must build and run against the workspace (all five workloads correct)"
cargo run --release --quiet --manifest-path examples/benchmark/Cargo.toml -- --smoke

echo "==> micro host-speed floors (simulated bytes, engine hand-offs, stream writes, fetches, the two payload kernels, the two small-write shapes of the mount and the two verified RS shapes per host second)"
# On one CPU, like examples/benchmark: only one engine thread runs at a
# time, and unpinned every hand-off is a cross-core wake whose cost on a
# small VM swings 5x with what the other core has just been doing.
pin=""
if command -v taskset >/dev/null; then
    pin="taskset -c $(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')"
fi
micro_dir="$(pwd)/target/micro"
BENCH_JSON_DIR="$micro_dir" $pin cargo bench -q -p bench --bench micro
micro_floor() { # <key in the host block> <committed floor> <what it counts>
    local rate
    rate="$(awk -F': ' -v key="\"$1\"" 'index($0, key) { gsub(/,/, "", $2); print $2; exit }' \
        "$micro_dir/BENCH_micro.json")"
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
# The two payload kernels over one hot chunk (ISSUE 20, EXPERIMENTS.md
# "Parity and digest kernels"), each floor between what the table kernel
# it replaced does and what the vector kernel measured: CRC-64 8 GB/hs
# (four-lane tables 2.3-4.1, carry-less-multiply fold 19.6-22), GF(2^8)
# multiply-accumulate 3 GB/hs (log/exp loop 0.8-1.3, split-nibble pshufb
# 10-21). Gated only where the vector kernel ran: a CPU without it runs
# the portable kernel, which these floors exist to tell apart from it.
kernel_floor() { # <kernel-name key> <rate key> <floor> <what it counts>
    if grep -q "\"$1\": \"table\"" "$micro_dir/BENCH_micro.json"; then
        echo "    micro: $4: portable kernel, floor skipped"
    else
        micro_floor "$2" "$3" "$4"
    fi
}
kernel_floor crc_kernel crc64_bytes_per_host_second 8000000000 "CRC-64 digested bytes"
kernel_floor gf_kernel gf_mul_acc_bytes_per_host_second 3000000000 "GF(2^8) multiplied bytes"
# The two mount shapes the frozen benchmark's layer drives never reach —
# they only read misses (ISSUE 21, EXPERIMENTS.md "Page-grain payloads").
# An 8-byte set to a just-fetched chunk (miss + copy-on-write + one-page
# eviction write-back, rand_page_rw's loop): 80 000 per host second,
# between the 43-53 k of copying the whole 256 KiB chunk per set and the
# 170-285 k of copying the one page it dirties. An 8-byte set to a
# never-written chunk plus a flush (meta_fan_in's burst): 40 000, between
# the 11-12 k of zero-filling and then copying a chunk to hold 8 bytes and
# the 110-130 k of a zero table with one leaf replaced.
micro_floor cow_sets_per_host_second 80000 "8-byte sets to fetched chunks"
micro_floor fresh_sets_per_host_second 40000 "8-byte sets to fresh chunks"
# The two shapes a page's memoised CRC-64 sum serves (ISSUE 23,
# EXPERIMENTS.md "A page is digested once"), on an RS(4, 2) file under
# verify_reads. A verified fetch of an unchanged chunk through a thrashing
# mount: 300 000 per host second, between the 36-40 k of re-digesting
# 256 KiB per fetch and the 630-920 k of folding 64 standing sums. A
# one-page overwrite of a materialised chunk, which vets its base first:
# 80 000, between the 29-34 k of digesting the whole base per write and
# the 170-240 k of digesting the one new page.
micro_floor verified_fetches_per_host_second 300000 "verified fetches of unchanged chunks"
micro_floor vetted_overwrites_per_host_second 80000 "one-page overwrites of vetted RS chunks"

echo "All checks passed."
