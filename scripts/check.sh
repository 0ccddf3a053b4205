#!/usr/bin/env bash
# Pre-PR gate: run this before pushing. Offline-friendly — everything it
# needs (including the vendored shims/ crates) lives in the workspace, so
# no network access is required.
#
#   scripts/check.sh          # fmt + clippy + full workspace test suite
#   scripts/check.sh --quick  # skip clippy (fmt + tests only)
#
# "No behaviour change" is the ledger step below: scripts/ledger.sh diffs
# the virtual rows of every bench target and of the frozen benchmark's
# five workloads against the committed BENCH_* files.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> pairs.sh parses (this gate runs ledger.sh)"
bash -n scripts/pairs.sh

echo "==> fusemm and nvmalloc reach the store's data plane only through fetch_chunks / write_runs_batch"
# The per-chunk and byte-slice entry points are wrappers for benches, tests
# and the frozen benchmark: a client calling one has re-forked the data path.
# (`! grep ...` alone would not stop a `set -e` script: errexit ignores a negated status.)
! grep -rnE --exclude='*tests.rs' '\.(fetch_chunk|write_runs|write_pages|write_pages_batch)\(' \
    crates/fusemm/src crates/nvmalloc/src || exit 1

echo "==> one recorder mode and one critical path (a traced run is a causal run)"
# A second recorder mode, a lexical-only cluster build or a critical path
# re-derived from Chrome exports would each re-fork the observability path.
! grep -rnE 'enabled_causal|causal_enabled|ObsMode::Spans|spans_from_chrome|Cluster::with_obs\(' \
    crates src tests examples/*.rs || exit 1

echo "==> one member setter, one layout walk and one manager-rank liveness"
# A parity-only slot setter, a stripe-position helper outside FileMeta or a
# shard liveness beside the manager rank's would each re-fork the metadata tier.
! grep -rnE 'ShardCrash|ShardRecover|ShardDown|set_shard_alive|shard_alive\(|revoke_shard_leases|fn set_parity_slot|fn stripe_pos' \
    crates src tests examples/*.rs || exit 1

echo "==> one manager log: the manager's metadata changes only through MetaState::apply"
# Manager::commit(record) applies every change of files, names, slots,
# links, lifetimes, stale flags, chunk births, digests, homes and groups
# through the apply that replay folds a journal lane with, and appends it
# to its lane; reference counts are what apply derives from the slots, and
# a standby takeover installs an apply-built replay (DESIGN.md §16). A
# write to one of those tables outside apply (or install, and apply's
# unref), a slot setter, an incref beside the derived counts, an optional
# journal or a one-sided replay check would make the journal a shadow of
# the manager again. So would a group record or a group setter beside the
# groups apply derives from the slots. None comes back.
! grep -rnE 'journal_home|journal_to|verify_replayed|chunk_refs|incref_chunk|enable_journal|Option<JournalSet>|\.slot_mut\(|GroupLink|GroupUnlink|leave_group' \
    crates src tests examples/*.rs || exit 1
! awk 'FNR == 1 { impl = ""; allowed = 0; test = 0 } /^mod tests \{/ { test = 1 }
      /^impl / { impl = $2 }
      impl == "MetaState" && /^    (pub(\(crate\))? )?fn (apply|install|unref)\(/ { allowed = 1 }
      !test && !allowed && !/^[[:space:]]*\/\// &&
      (/(^|[^A-Za-z_])(files|by_name|refs|chunks|homes|groups|ids|slots|parity_slots|parity_stale)\.(insert|remove|push|retain|entry|get_mut|swap_remove|clear|extend|truncate|drain|iter_mut|resize)\(/ ||
       /parity_stale\[[^]]*\] *=([^=>]|$)/ ||
       /\.(size|stripe|expires_at|encoded_slots|crc|target|next_file|next_chunk|stripe_cursor) *[-+]?=([^=>]|$)/) {
          print FILENAME ":" FNR ": " $0 }
      allowed && /^    }$/ { allowed = 0 }' \
    crates/chunkstore/src/journal.rs $(find crates/chunkstore/src/manager -name '*.rs' ! -name tests.rs) |
    grep . || exit 1

echo "==> one record codec: each layout is written once, and byte order only in the integer fields"
# Every record is declared once in journal.rs's records! table, and every
# field type's layout is one Field put/get pair (DESIGN.md §16). A
# hand-written encode or decode arm would spell out bytes again: outside
# the int_field! macro no non-test line of journal.rs converts to or from
# little-endian bytes.
! awk 'FNR == 1 { test = 0; ints = 0 } /^mod tests \{/ { test = 1 }
      /^macro_rules! int_field/ { ints = 1 }
      !test && !ints && /(to|from)_le_bytes/ { print FILENAME ":" FNR ": " $0 }
      ints && /^}$/ { ints = 0 }' crates/chunkstore/src/journal.rs | grep . || exit 1

echo "==> one validity rule for a cached placement (the placement epoch) and a network of two constants"
# A lease table beside the epoch, or a network config type beside
# netsim::LINK_BW / netsim::LATENCY, would each bring back a second rule.
# (The frozen examples/benchmark is not among these paths.)
! grep -rnE '\blease|Lease|LEASE|BitSet|NetConfig' \
    crates src tests examples/*.rs || exit 1

echo "==> the fabric is only the wire, and a shard's node lives in ShardSet alone"
# A link or SSD-speed fault, a reachability check or a named-endpoint
# registry would each bring back a half-modelled fault or a second record
# of where a shard runs.
! grep -rnE 'LinkFault|link_fault|reachable\(|SsdSlowdown|set_slowdown|slow_ssd|degrade_link|register_endpoint|endpoint_node|shard_endpoint' \
    crates src tests examples/*.rs || exit 1

echo "==> a manager rank is one record, and the engine has no observer"
# A manager node beside the rank's record, a crash table beside the rank
# set, a store without a rank set, or an engine observer hook beside
# current_proc() would each bring back a second record of one thing.
! grep -rnE 'manager_node|MgrHa|Option<ShardSet>|EngineObserver|run_with_observer|LaneBinder' \
    crates src tests examples/*.rs || exit 1

echo "==> the engine's unsafe code is engine/stack.rs (and one_kept_heap's mallopt), and a process is a stack, not a thread"
# Every other line of simcore stays safe Rust; a thread per process, or a
# park/unpark baton, would bring the futex hand-off back as a fork of the
# stack switch.
! awk '/^fn one_kept_heap\(\)/ { heap = 1 } heap && /^}/ { heap = 0 }
      /(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)/ && !heap { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/simcore/src -name '*.rs' ! -path '*/engine/stack.rs') | grep . || exit 1
! grep -rnE 'thread::scope|\bpark\(|\.unpark\(' crates/simcore/src || exit 1

echo "==> the workloads' only unsafe code is the MM tile product's AVX dispatch"
# The tile product is one safe body compiled twice; calling its AVX build
# after is_x86_feature_detected! is the one place a CPU feature is taken
# on trust. Any other unsafe under workloads would be a second kernel.
avx_dispatch='^crates/workloads/src/matmul\.rs:[0-9]+: +return unsafe \{ tile_rows_avx\(crow, arow, brows\) \};$'
! grep -rnE '(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)' crates/workloads/src | grep -vE "$avx_dispatch" | grep . || exit 1

echo "==> one thread, no atomics: the simulator's shared state is Rc, Cell and RefCell"
# Every simulated process runs on the thread that called Engine::run, so a
# lock, an atomic or an Arc anywhere in a crate pays for a second thread
# that does not exist (DESIGN.md §13 "One thread, no atomics"). The one
# thing that stays locked is the engine's process-wide pool of mapped
# stacks, which test-harness threads share. Comments may still name the
# old types.
stack_pool='^crates/simcore/src/engine/stack\.rs:[0-9]+:(use parking_lot::Mutex;|static POOL: Mutex<Vec<Stack>> = Mutex::new\(Vec::new\(\)\);)$'
! grep -rnE 'Mutex|sync::atomic|Arc<|Arc::' crates/*/src |
    grep -vE '^[^:]+:[0-9]+: *//' | grep -vE "$stack_pool" | grep . || exit 1
# A trace lane is an engine process or the driver: a recorder cannot leave
# the thread that made it, so nothing in obs is keyed by a host thread.
! grep -rnE 'ThreadId|thread::current|bind_lane' crates/obs/src || exit 1

echo "==> every map a data-path operation looks an id up in hashes with chunkstore's IdHasher"
# A HashMap or HashSet under chunkstore or fusemm is an IdMap (chunkstore/
# src/ids.rs, DESIGN.md §13 "One hash per id"): SipHash's keyed rounds on
# ChunkId / FileId keys cost more than the lookups they serve. The one map
# left on the default hasher is the namespace's by_name, keyed by path
# strings. Imports, comments and test code may still name the std types.
! awk 'FNR == 1 { test = 0 } /^mod tests \{/ { test = 1 }
      !test && /Hash(Map|Set)/ && !/^[[:space:]]*(\/\/|use )/ && !/BuildHasherDefault<IdHasher>/ &&
      !/^[[:space:]]*(pub )?by_name: HashMap(<String, FileId>,|::new\(\),)$/ { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/chunkstore/src crates/fusemm/src -name '*.rs' ! -name tests.rs ! -name '*_tests.rs') |
    grep . || exit 1

echo "==> nvmalloc waits for its turn in one place, and the write-back daemon's off value is a value"
# Every store call nvmalloc makes is a step of its one stepper,
# crates/nvmalloc/src/steps.rs (DESIGN.md §4b): a yield or a clock advance
# written anywhere else in that crate is a second copy of the rule.
# Comments and test code may still name them.
! awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
      !test && !/^[[:space:]]*\/\// && /yield_until_min|advance_to/ { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/nvmalloc/src -name '*.rs' ! -name tests.rs ! -name steps.rs) | grep . || exit 1
# A daemon on/off branch beside the 1.0 off value, the options twin of
# ssdmalloc_shared, the byte-metered resource and a metrics lane the
# Chrome exporter never used are gone; none comes back.
! grep -rnE 'writeback_daemon_on|ssdmalloc_shared_opts|MeteredResource|METRICS_LANE' \
    crates src tests examples/*.rs || exit 1

echo "==> the paper's MM figures have one producer"
# Figs. 3-6 and Table IV are rows of one run table (crates/bench/src/mm.rs)
# emitted by the one mm_paper target: a per-figure target would simulate a
# run two figures share twice. None comes back.
! { ls crates/bench/benches; cat crates/bench/Cargo.toml; } | grep -E 'fig[3-6]_mm_|table4_mm_' || exit 1

echo "==> nvmalloc casts bytes to elements in one place"
# A view hands the application the cache's own pages as &[T]; the one
# byte-to-element cast (and the two element-to-byte ones) live in pod.rs,
# next to the Pod contract that makes them sound.
! grep -rn 'from_raw_parts' crates/nvmalloc/src | grep -v '^crates/nvmalloc/src/pod\.rs:' | grep . || exit 1

if [ "$quick" -eq 0 ]; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo build --benches"
cargo build --benches -q --workspace

echo "==> perf ledger (every committed BENCH_* file re-emitted byte for byte, the five benchmark workloads correct, every shape check true)"
scripts/ledger.sh

echo "==> exported trace must satisfy the Chrome trace-event schema (with causal flows + counter tracks)"
cargo run -q --release --example validate_trace -- --require-flows --require-counters \
    target/ledger/trace_smoke.json

echo "==> micro host-speed floors (simulated bytes, engine hand-offs, stream writes, fetches, the two payload kernels, the two small-write shapes of the mount, the two verified RS shapes, network transfers, resident reads in place and MM tile multiply-adds per host second)"
# On one CPU, like examples/benchmark: every rate here is host time, and
# on a small VM it swings with what the other core has just been doing.
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
# Engine hand-offs per host second (EXPERIMENTS.md "A hand-off is a stack
# switch"): a hand-off is two user-space stack switches, ~0.2 µs pinned.
# 1 000 000 in the 128-process barrier + yield storm, a third of the
# slowest of three pinned runs (3.3-4.3 M); 1 500 000 in the 16-process
# yield storm, a bit under a third of its slowest (5.2-5.6 M, one 1.65 M
# straight after a build). The thread-per-process baton this replaced,
# one futex wake and one futex sleep per hand-off, ran 340-480 k at 16
# and 340-400 k at 128, so it fails both.
micro_floor engine_handoffs_per_host_second 1000000 "engine hand-offs"
micro_floor engine_handoffs_per_host_second_16 1500000 "engine hand-offs at 16 processes"
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
    if grep -qE "\"$1\": \"(table|portable)\"" "$micro_dir/BENCH_micro.json"; then
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
# 256 KiB transfers between two nodes per host second, the shape of the
# benchmark's net drive (EXPERIMENTS.md "One thread, no atomics"): two NIC
# charges and two counter bumps each. 13 500 000, between the 10.1-10.8 M
# of a mutex per charge and an atomic per bump and the 17.6-17.8 M of a
# RefCell and a Cell, three pinned runs each.
micro_floor transfers_per_host_second 13500000 "network transfers"
# Whole-chunk reads of a resident chunk through NvmVec::view, the pieces
# summed where they sit (EXPERIMENTS.md "Reading in place"): 22 000 000 000
# bytes per host second, between the 14.5-17.7 G of read_slice, which
# copies the chunk out before the same sum, and the 25.9-42.2 G measured
# in place, nine pinned runs each.
micro_floor in_place_read_bytes_per_host_second 22000000000 "bytes read in place"
# The MM tile product alone, in mm_fanout's shape, fastest of eight rounds
# (EXPERIMENTS.md "The MM tile product at vector width"): 6 000 000 000
# multiply-adds per host second, between the 2.95-5.24 G of the one-row
# SSE2 loop it replaced and the 6.96-11.2 G of the four-row AVX build,
# eleven alternated pinned runs each (both sides read in two bands on a
# shared machine). Gated only where the AVX build ran, like the two
# payload kernels.
kernel_floor mm_kernel mm_tile_fmas_per_host_second 6000000000 "MM tile multiply-adds"

echo "All checks passed."
