//! Golden cross-commit pin of the data path.
//!
//! Every other determinism test compares two runs of the *same* build;
//! this one compares the build against constants recorded at the commit
//! before the data path was folded into one implementation (PR 13). Four
//! small seeded jobs — {paper, pipelined} × {plain LRU, `seg_cache` +
//! write-back daemon}, the two daemon jobs sharded (2 manager shards)
//! over RS(2,1) with `verify_reads` — drive `read`, multi-run-per-chunk
//! `read_strided`, multi-chunk `write`, `flush` and `ssdcheckpoint`
//! through a 3-chunk cache, and each asserts its makespan in ns, its full
//! counter snapshot and an FNV-1a hash of the `(layer, name, start, end)`
//! span stream. A "no behaviour change" refactor must leave every
//! constant below unedited; a change that means to move virtual time
//! re-records them and says so.
//!
//! Re-recorded once since: when the restart path moved onto the data path
//! (windows with an engine yield per step — DESIGN.md §4b). The four
//! ranks checkpoint a 1.05-chunk DRAM image and restore concurrently,
//! which is exactly what that change re-times: on the two paper goldens
//! only `makespan_ns` and `span_hash` moved (counter snapshot
//! byte-identical); on the two pipelined ones the restart is now batched
//! (fewer `store.mgr_rpc*`, more `store.batched_*`, parity shipped once
//! per group). `tests/restart_path.rs` pins what must not have moved: a
//! single rank's paper-path restart, to the nanosecond.
//!
//! Re-recorded a second time when the store's per-chunk and batched calls
//! became one implementation (DESIGN.md §15, "the parity moment"). The two
//! plain goldens moved by span stream only — makespans unedited; a
//! one-entry call's span opens once its resolution is in hand and emits no
//! batch span, and `store.batched_*` count calls of more than one entry
//! (210 / 84 -> 59 / 19 on the pipelined one, no other counter). The two
//! RS goldens moved by the parity moment: a group's merged delta now
//! leaves when its last entry is issued, not after every entry of the call
//! has landed — pipelined 579 005 338 -> 505 579 229 ns (counters:
//! `batched_*`, one throttled write, one cache invalidation), paper
//! 755 445 556 -> 768 207 035 ns, whose write-back daemon's one-chunk
//! flushes now end where a foreground per-chunk write would, which shifts
//! which chunk it takes next (31 counter lines follow that schedule; no
//! foreground call of the paper path moved — `restart_path`'s solo
//! constants and `mount_tests`' paper RS flush pin are unedited).

use chunkstore::StoreConfig;
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use nvmalloc::NvmVec;
use simcore::rng::child_seed;

const CHUNK: usize = 256 * 1024;
const SHARED_LEN: usize = 8 * CHUNK;
const PRIVATE_LEN: usize = 4 * CHUNK;
const OPS_PER_RANK: u64 = 24;

struct Golden {
    makespan_ns: u64,
    span_hash: u64,
    /// `name=value` per line, in name order (the `Snapshot` map order).
    counters: &'static str,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Byte `i` of the value rank `rank` writes in its `op`-th operation.
fn fill(rank: usize, op: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64 ^ op.wrapping_mul(31) ^ (rank as u64) << 5) as u8)
        .collect()
}

fn run(pipelined: bool, hardened: bool) -> (u64, u64, String) {
    // `hardened` = segmented cache + write-back daemon on the mount, and a
    // 2-shard manager over RS(2,1) with verified reads underneath.
    let mut fuse = FuseConfig {
        cache_bytes: 3 * CHUNK as u64,
        read_ahead_chunks: 2,
        pipelined_io: pipelined,
        ..FuseConfig::default()
    };
    let mut store = StoreConfig::default();
    let mut job = JobConfig::remote(2, 2, 3);
    if hardened {
        fuse = fuse.with_writeback(0.34, 0.67).with_seg_cache();
        job = job.with_parity(2, 1).with_manager_shards(2);
        store.verify_reads = true;
        store.manager_shards = 2;
    }
    let mut spec = ClusterSpec::hal().scaled(256);
    spec.nodes = job.nodes_needed();
    let cluster = Cluster::with_obs_causal(spec, &job.benefactor_nodes(), fuse, store);
    let result = run_job(&cluster, &job, Calibration::default(), |ctx, env| {
        let shared: NvmVec<u8> = env
            .client
            .ssdmalloc_shared(ctx, "golden", SHARED_LEN)
            .expect("shared alloc");
        let private: NvmVec<u8> = env.client.ssdmalloc(ctx, PRIVATE_LEN).expect("alloc");
        let mut oracle = vec![0u8; PRIVATE_LEN];
        let mut ok = true;
        let mut rng = child_seed(0x5EED_601D, env.rank as u64);
        let mut draw = |bound: usize| {
            rng = child_seed(rng, 1);
            (rng % bound as u64) as usize
        };
        for op in 0..OPS_PER_RANK {
            match draw(6) {
                // Multi-chunk write into the private variable.
                0 | 1 => {
                    let len = 1 + draw(2 * CHUNK + CHUNK / 2);
                    let start = draw(PRIVATE_LEN - len);
                    let data = fill(env.rank, op, len);
                    private.write_slice(ctx, start, &data).expect("write");
                    oracle[start..start + len].copy_from_slice(&data);
                }
                // Multi-chunk read of it, checked against the oracle.
                2 => {
                    let len = 1 + draw(2 * CHUNK);
                    let start = draw(PRIVATE_LEN - len);
                    let mut out = vec![0u8; len];
                    private.read_slice(ctx, start, &mut out).expect("read");
                    ok &= out == oracle[start..start + len];
                }
                // Strided read: 48 runs of 512 B at an 8 KiB stride — 32
                // runs per chunk, crossing a chunk boundary.
                3 => {
                    let start = draw(PRIVATE_LEN - 48 * 8192);
                    let mut out = vec![0u8; 48 * 512];
                    private
                        .read_strided(ctx, start, 512, 8192, 48, &mut out)
                        .expect("strided");
                    for r in 0..48 {
                        let at = start + r * 8192;
                        ok &= out[r * 512..(r + 1) * 512] == oracle[at..at + 512];
                    }
                }
                // Small racy write into the shared variable (deterministic
                // under the engine; content not checked).
                4 => {
                    let start = draw(SHARED_LEN - 8192);
                    shared
                        .write_slice(ctx, start, &fill(env.rank, op, 8192))
                        .expect("shared write");
                }
                // Sequential 64 KiB reads across three chunks of the shared
                // variable: the stream detector's read-ahead fires.
                _ => {
                    let base = draw(SHARED_LEN - 3 * CHUNK);
                    let mut out = vec![0u8; 64 * 1024];
                    for step in 0..12 {
                        shared
                            .read_slice(ctx, base + step * 64 * 1024, &mut out)
                            .expect("stream read");
                    }
                }
            }
        }
        private.flush(ctx).expect("flush");
        shared.flush(ctx).expect("flush shared");
        env.comm.barrier(ctx, env.rank);
        let dram = fill(env.rank, 99, CHUNK + 12_345);
        let ckpt = env
            .client
            .ssdcheckpoint(ctx, "golden", &dram, &[&private])
            .expect("checkpoint");
        // Post-checkpoint write: copy-on-write must protect the image.
        private
            .write_slice(ctx, CHUNK - 100, &[0xEE; 200])
            .expect("cow write");
        private.flush(ctx).expect("flush after cow");
        ok &= env.client.restore_dram(ctx, &ckpt).expect("restore dram") == dram;
        let restored: NvmVec<u8> = env.client.restore_var(ctx, &ckpt, 0).expect("restore var");
        let mut back = vec![0u8; PRIVATE_LEN];
        restored.read_slice(ctx, 0, &mut back).expect("read back");
        ok && back == oracle
    });
    assert!(
        result.outputs.iter().all(|ok| *ok),
        "a rank read wrong bytes"
    );

    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for s in cluster.trace.spans() {
        fnv1a(&mut hash, s.layer.as_str().as_bytes());
        fnv1a(&mut hash, s.name.as_bytes());
        fnv1a(&mut hash, &s.start.as_nanos().to_le_bytes());
        fnv1a(&mut hash, &s.end.as_nanos().to_le_bytes());
    }
    let counters: String = cluster
        .stats
        .snapshot()
        .values
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    (result.makespan().as_nanos(), hash, counters)
}

fn check(pipelined: bool, hardened: bool, want: &Golden) {
    let (makespan_ns, span_hash, counters) = run(pipelined, hardened);
    assert_eq!(
        (makespan_ns, span_hash),
        (want.makespan_ns, want.span_hash),
        "makespan / span-stream hash moved (pipelined={pipelined}, hardened={hardened}); \
         counters now:\n{counters}"
    );
    assert_eq!(
        counters.trim(),
        want.counters.trim(),
        "counter snapshot moved (pipelined={pipelined}, hardened={hardened})"
    );
}

#[test]
fn paper_plain_lru() {
    check(false, false, &PAPER_PLAIN);
}

#[test]
fn paper_segmented_daemon_sharded_rs() {
    check(false, true, &PAPER_HARDENED);
}

#[test]
fn pipelined_plain_lru() {
    check(true, false, &PIPELINED_PLAIN);
}

#[test]
fn pipelined_segmented_daemon_sharded_rs() {
    check(true, true, &PIPELINED_HARDENED);
}

// ----- constants recorded at c2a734b, re-recorded twice (see the header) -----

const PAPER_PLAIN: Golden = Golden {
    makespan_ns: 339_677_119,
    span_hash: 0x95590E51BD6AC856,
    counters: "\
fuse.async_writebacks=0
fuse.bg_flushes=0
fuse.bg_writeback_bytes=0
fuse.clean_evictions=202
fuse.evictions=284
fuse.hits=872
fuse.misses=194
fuse.read_req_bytes=22155264
fuse.readahead_fetches=96
fuse.scan_protected_hits=0
fuse.throttled_writes=0
fuse.write_req_bytes=10387456
fuse.writeback_bytes=10354688
n0.dram.allocated=0
n0.dram.bytes=0
n1.dram.allocated=0
n1.dram.bytes=0
n2.dram.allocated=0
n2.dram.bytes=0
n2.ssd.read_bytes=23068672
n2.ssd.reads=88
n2.ssd.writes=46
n2.ssd.written_bytes=5963776
n3.dram.allocated=0
n3.dram.bytes=0
n3.ssd.read_bytes=26476544
n3.ssd.reads=101
n3.ssd.writes=41
n3.ssd.written_bytes=5906432
n4.dram.allocated=0
n4.dram.bytes=0
n4.ssd.read_bytes=20709376
n4.ssd.reads=79
n4.ssd.writes=39
n4.ssd.written_bytes=5890048
net.bytes=84110564
net.messages=1574
nvm.app_read_bytes=18431637
nvm.app_write_bytes=10132783
nvm.checkpoints=4
nvm.frees=0
nvm.mallocs=9
pfs.read_bytes=0
pfs.written_bytes=0
store.batched_fetches=0
store.batched_writes=0
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=15646948
store.bytes_to_clients=68157440
store.chunk_fetches=314
store.cow_clones=8
store.degraded_reads=0
store.failovers=0
store.loc_cache_hits=0
store.loc_cache_invalidations=0
store.loc_cache_misses=0
store.mgr_rpc_fetch=314
store.mgr_rpc_place=36
store.mgr_rpc_write=118
store.mgr_rpcs=468
store.repairs_bytes=0
store.repairs_chunks=0
store.zero_fills=54
",
};

const PAPER_HARDENED: Golden = Golden {
    makespan_ns: 768_207_035,
    span_hash: 0x45D46A29C78BA1AD,
    counters: "\
fuse.async_writebacks=0
fuse.bg_flushes=81
fuse.bg_writeback_bytes=9482240
fuse.clean_evictions=639
fuse.evictions=639
fuse.hits=746
fuse.misses=320
fuse.read_req_bytes=22155264
fuse.readahead_fetches=325
fuse.scan_protected_hits=686
fuse.throttled_writes=8
fuse.write_req_bytes=10387456
fuse.writeback_bytes=10006528
n0.dram.allocated=0
n0.dram.bytes=0
n1.dram.allocated=0
n1.dram.bytes=0
n2.dram.allocated=0
n2.dram.bytes=0
n2.ssd.read_bytes=47972352
n2.ssd.reads=183
n2.ssd.writes=80
n2.ssd.written_bytes=10170368
n3.dram.allocated=0
n3.dram.bytes=0
n3.ssd.read_bytes=55050240
n3.ssd.reads=210
n3.ssd.writes=72
n3.ssd.written_bytes=10248192
n4.dram.allocated=0
n4.dram.bytes=0
n4.ssd.read_bytes=34340864
n4.ssd.reads=131
n4.ssd.writes=86
n4.ssd.written_bytes=12308480
net.bytes=166415816
net.messages=2902
nvm.app_read_bytes=18431637
nvm.app_write_bytes=10132783
nvm.checkpoints=4
nvm.frees=0
nvm.mallocs=9
pfs.read_bytes=0
pfs.written_bytes=0
store.batched_fetches=0
store.batched_writes=0
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=30597576
store.bytes_to_clients=135266304
store.chunk_fetches=669
store.cow_clones=8
store.crc_mismatches=0
store.degraded_reads=0
store.degraded_reconstructs=0
store.failovers=0
store.loc_cache_hits=0
store.loc_cache_invalidations=0
store.loc_cache_misses=0
store.mgr_rpc_fetch=669
store.mgr_rpc_place=36
store.mgr_rpc_write=115
store.mgr_rpcs=820
store.parity_bytes=15298788
store.parity_encodes=115
store.parity_repairs=0
store.quarantined=0
store.repairs_bytes=0
store.repairs_chunks=0
store.scrub_passes=0
store.scrub_repairs=0
store.shard_rpcs.s0=369
store.shard_rpcs.s1=451
store.zero_fills=153
",
};

const PIPELINED_PLAIN: Golden = Golden {
    makespan_ns: 271_048_149,
    span_hash: 0xC8630A8A212B067B,
    counters: "\
fuse.async_writebacks=69
fuse.bg_flushes=0
fuse.bg_writeback_bytes=0
fuse.clean_evictions=191
fuse.evictions=260
fuse.hits=199
fuse.misses=183
fuse.read_req_bytes=22155264
fuse.readahead_fetches=83
fuse.scan_protected_hits=0
fuse.throttled_writes=0
fuse.write_req_bytes=10387456
fuse.writeback_bytes=9256960
n0.dram.allocated=0
n0.dram.bytes=0
n1.dram.allocated=0
n1.dram.bytes=0
n2.dram.allocated=0
n2.dram.bytes=0
n2.ssd.read_bytes=20971520
n2.ssd.reads=80
n2.ssd.writes=42
n2.ssd.written_bytes=5697536
n3.dram.allocated=0
n3.dram.bytes=0
n3.ssd.read_bytes=24903680
n3.ssd.reads=95
n3.ssd.writes=39
n3.ssd.written_bytes=5746688
n4.dram.allocated=0
n4.dram.bytes=0
n4.ssd.read_bytes=17301504
n4.ssd.reads=66
n4.ssd.writes=35
n4.ssd.written_bytes=5218304
net.bytes=75822564
net.messages=1098
nvm.app_read_bytes=18431637
nvm.app_write_bytes=10132783
nvm.checkpoints=4
nvm.frees=0
nvm.mallocs=9
pfs.read_bytes=0
pfs.written_bytes=0
store.batched_fetches=59
store.batched_writes=19
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=14549220
store.bytes_to_clients=61079552
store.chunk_fetches=290
store.cow_clones=8
store.degraded_reads=0
store.failovers=0
store.loc_cache_hits=90
store.loc_cache_invalidations=45
store.loc_cache_misses=200
store.mgr_rpc_fetch=142
store.mgr_rpc_place=36
store.mgr_rpc_write=84
store.mgr_rpcs=262
store.repairs_bytes=0
store.repairs_chunks=0
store.zero_fills=57
",
};

const PIPELINED_HARDENED: Golden = Golden {
    makespan_ns: 505_579_229,
    span_hash: 0xDD813833E1359A35,
    counters: "\
fuse.async_writebacks=25
fuse.bg_flushes=60
fuse.bg_writeback_bytes=7282688
fuse.clean_evictions=369
fuse.evictions=394
fuse.hits=146
fuse.misses=236
fuse.read_req_bytes=22155264
fuse.readahead_fetches=164
fuse.scan_protected_hits=79
fuse.throttled_writes=11
fuse.write_req_bytes=10387456
fuse.writeback_bytes=10149888
n0.dram.allocated=0
n0.dram.bytes=0
n1.dram.allocated=0
n1.dram.bytes=0
n2.dram.allocated=0
n2.dram.bytes=0
n2.ssd.read_bytes=28573696
n2.ssd.reads=109
n2.ssd.writes=78
n2.ssd.written_bytes=9977856
n3.dram.allocated=0
n3.dram.bytes=0
n3.ssd.read_bytes=34078720
n3.ssd.reads=130
n3.ssd.writes=65
n3.ssd.written_bytes=9224192
n4.dram.allocated=0
n4.dram.bytes=0
n4.ssd.read_bytes=22544384
n4.ssd.reads=86
n4.ssd.writes=81
n4.ssd.written_bytes=11538432
net.bytes=111965668
net.messages=1466
nvm.app_read_bytes=18431637
nvm.app_write_bytes=10132783
nvm.checkpoints=4
nvm.frees=0
nvm.mallocs=9
pfs.read_bytes=0
pfs.written_bytes=0
store.batched_fetches=105
store.batched_writes=11
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=28627172
store.bytes_to_clients=83099648
store.chunk_fetches=424
store.cow_clones=8
store.crc_mismatches=0
store.degraded_reads=0
store.degraded_reconstructs=0
store.failovers=0
store.loc_cache_hits=207
store.loc_cache_invalidations=41
store.loc_cache_misses=217
store.mgr_rpc_fetch=170
store.mgr_rpc_place=36
store.mgr_rpc_write=102
store.mgr_rpcs=308
store.parity_bytes=13185024
store.parity_encodes=101
store.parity_repairs=0
store.quarantined=0
store.repairs_bytes=0
store.repairs_chunks=0
store.scrub_passes=0
store.scrub_repairs=0
store.shard_rpcs.s0=177
store.shard_rpcs.s1=131
store.zero_fills=107
",
};
