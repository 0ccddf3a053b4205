//! The restart path on the mount's data path (DESIGN.md §4b, §8):
//! `ssdcheckpoint`'s DRAM image, `restore_dram`, `restore_var` and
//! `drain_checkpoint_to_pfs` run in policy windows with an engine yield
//! per step.
//!
//! * `solo_paper_restart_ends_where_it_did` — the no-regression pin: a
//!   single rank on the paper path ends every restart call at the virtual
//!   time it ended at before the restart path was windowed, with the same
//!   counter snapshot. The constants were recorded at the parent commit
//!   (664c05e) **before** the edit; a failing run prints the new values
//!   (the `datapath_golden` convention).
//! * `concurrent_restores_overlap_*` — four ranks on four nodes restoring
//!   at once finish within 2.5× of one rank alone (the parent served them
//!   strictly one after the other: 3.8×).
//! * `batched_restore_degrades_like_the_serial_one` — RS(4,2) +
//!   `verify_reads` with one benefactor crashed and one rotten: the
//!   windowed, batched restore returns the bytes and counts the
//!   reconstructs and CRC mismatches of the per-chunk one.

use chunkstore::StoreConfig;
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use fusemm::FuseConfig;
use nvmalloc::NvmVec;
use simcore::VTime;

const CHUNK: usize = 256 * 1024;

fn fill(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64 ^ (i as u64 >> 11) ^ (rank as u64) << 5) as u8)
        .collect()
}

fn cluster_for(job: &JobConfig, fuse: FuseConfig, store: StoreConfig) -> Cluster {
    let mut spec = ClusterSpec::hal().scaled(64);
    spec.nodes = job.nodes_needed();
    Cluster::with_obs(spec, &job.benefactor_nodes(), fuse, store)
}

// ----- (b) the single-rank paper-path pin -----------------------------------

/// A ragged variable (8 chunks + 12 345 bytes, every chunk written) and a
/// 4 MiB DRAM image.
const SOLO_VAR_LEN: usize = 8 * CHUNK + 12_345;
const SOLO_DRAM_LEN: usize = 4 * 1024 * 1024;

/// End of `ssdcheckpoint`, `restore_dram`, `restore_var`, the foreground
/// drain and the background drain's "safe" time, in ns.
const SOLO_ENDS_NS: [u64; 5] = [
    69_867_184,
    108_030_768,
    152_725_868,
    301_123_754,
    449_521_640,
];

const SOLO_COUNTERS: &str = "\
fuse.async_writebacks=0
fuse.bg_flushes=0
fuse.bg_writeback_bytes=0
fuse.clean_evictions=9
fuse.evictions=15
fuse.hits=7
fuse.misses=11
fuse.read_req_bytes=2113536
fuse.readahead_fetches=7
fuse.scan_protected_hits=0
fuse.throttled_writes=0
fuse.write_req_bytes=2113536
fuse.writeback_bytes=2113536
n0.dram.allocated=0
n0.dram.bytes=0
n1.dram.allocated=0
n1.dram.bytes=0
n1.ssd.read_bytes=6029312
n1.ssd.reads=23
n1.ssd.writes=9
n1.ssd.written_bytes=2113536
n2.dram.allocated=0
n2.dram.bytes=0
n2.ssd.read_bytes=5242880
n2.ssd.reads=20
n2.ssd.writes=8
n2.ssd.written_bytes=2097152
n3.dram.allocated=0
n3.dram.bytes=0
n3.ssd.read_bytes=5505024
n3.ssd.reads=21
n3.ssd.writes=9
n3.ssd.written_bytes=2113536
n4.dram.allocated=0
n4.dram.bytes=0
n4.ssd.read_bytes=5242880
n4.ssd.reads=20
n4.ssd.writes=8
n4.ssd.written_bytes=2097152
net.bytes=30527545
net.messages=470
nvm.app_read_bytes=2109497
nvm.app_write_bytes=2109497
nvm.checkpoints=1
nvm.frees=0
nvm.mallocs=2
pfs.read_bytes=0
pfs.written_bytes=12607602
store.batched_fetches=0
store.batched_writes=0
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=8417337
store.bytes_to_clients=22020096
store.chunk_fetches=93
store.cow_clones=0
store.degraded_reads=0
store.failovers=0
store.loc_cache_hits=0
store.loc_cache_invalidations=0
store.loc_cache_misses=0
store.mgr_rpc_fetch=93
store.mgr_rpc_place=7
store.mgr_rpc_write=34
store.mgr_rpcs=134
store.repairs_bytes=0
store.repairs_chunks=0
store.zero_fills=9
";

#[test]
fn solo_paper_restart_ends_where_it_did() {
    let job = JobConfig::remote(1, 1, 4);
    let fuse = FuseConfig {
        cache_bytes: 3 * CHUNK as u64,
        ..FuseConfig::default()
    };
    let cluster = cluster_for(&job, fuse, StoreConfig::default());
    let pfs = cluster.pfs.clone();
    let result = run_job(&cluster, &job, Calibration::default(), |ctx, env| {
        let data = fill(7, SOLO_VAR_LEN);
        let dram = fill(9, SOLO_DRAM_LEN);
        let var: NvmVec<u8> = env.client.ssdmalloc(ctx, SOLO_VAR_LEN).expect("alloc");
        var.write_slice(ctx, 0, &data).expect("write");
        var.flush(ctx).expect("flush");
        let mut ends = Vec::new();
        let ckpt = env
            .client
            .ssdcheckpoint(ctx, "solo", &dram, &[&var])
            .expect("checkpoint");
        ends.push(ctx.now());
        assert!(env.client.restore_dram(ctx, &ckpt).expect("restore dram") == dram);
        ends.push(ctx.now());
        let back: NvmVec<u8> = env.client.restore_var(ctx, &ckpt, 0).expect("restore var");
        ends.push(ctx.now());
        let drain = |ctx: &mut _, bg| env.client.drain_checkpoint_to_pfs(ctx, &ckpt, &pfs, bg);
        assert_eq!(drain(ctx, false).expect("drain"), ctx.now());
        ends.push(ctx.now());
        let parked = ctx.now();
        ends.push(drain(ctx, true).expect("background drain"));
        assert_eq!(ctx.now(), parked, "a background drain does not wait");
        let mut out = vec![0u8; SOLO_VAR_LEN];
        back.read_slice(ctx, 0, &mut out).expect("read back");
        assert!(out == data, "restored bytes differ");
        ends
    });
    let ends: Vec<u64> = result.outputs[0].iter().map(|t| t.as_nanos()).collect();
    let counters: String = cluster
        .stats
        .snapshot()
        .values
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    assert_eq!(
        ends, SOLO_ENDS_NS,
        "a solo paper-path restart call ends elsewhere; counters now:\n{counters}"
    );
    assert_eq!(
        counters.trim(),
        SOLO_COUNTERS.trim(),
        "counter snapshot moved"
    );
}

// ----- (a) concurrent restores overlap --------------------------------------

const RESTORE_VAR_LEN: usize = 8 * 1024 * 1024;

/// Four ranks on four nodes of R-SSD(4:1:8) each checkpoint an 8 MiB
/// variable; after a barrier the first `restorers` of them restore theirs.
/// Returns the `nvm.restore` span durations.
fn restore_spans(pipelined: bool, restorers: usize) -> Vec<VTime> {
    let job = JobConfig::remote(4, 1, 8);
    let fuse = FuseConfig {
        cache_bytes: 16 * CHUNK as u64,
        pipelined_io: pipelined,
        ..FuseConfig::default()
    };
    let cluster = cluster_for(&job, fuse, StoreConfig::default());
    let result = run_job(&cluster, &job, Calibration::default(), |ctx, env| {
        let data = fill(env.rank, RESTORE_VAR_LEN);
        let var: NvmVec<u8> = env.client.ssdmalloc(ctx, RESTORE_VAR_LEN).expect("alloc");
        var.write_slice(ctx, 0, &data).expect("write");
        let ckpt = env
            .client
            .ssdcheckpoint(ctx, "overlap", &[1, 2, 3], &[&var])
            .expect("checkpoint");
        env.comm.barrier(ctx, env.rank);
        let back: Option<NvmVec<u8>> =
            (env.rank < restorers).then(|| env.client.restore_var(ctx, &ckpt, 0).expect("restore"));
        // The read-back waits for the slowest restore: a rank that is done
        // early must not book the store ahead of one still restoring.
        env.comm.barrier(ctx, env.rank);
        back.is_none_or(|back| {
            let mut out = vec![0u8; RESTORE_VAR_LEN];
            back.read_slice(ctx, 0, &mut out).expect("read back");
            out == data
        })
    });
    assert!(result.outputs.iter().all(|ok| *ok), "wrong bytes restored");
    let spans: Vec<VTime> = cluster
        .trace
        .spans()
        .iter()
        .filter(|s| s.name == "nvm.restore")
        .map(|s| s.dur())
        .collect();
    assert_eq!(spans.len(), restorers);
    spans
}

fn assert_restores_overlap(pipelined: bool) {
    let solo = restore_spans(pipelined, 1)[0];
    let together = restore_spans(pipelined, 4);
    let slowest = together.iter().copied().max().expect("four spans");
    assert!(
        slowest.as_nanos() * 2 <= solo.as_nanos() * 5,
        "four concurrent restores queue end to end (pipelined={pipelined}): \
         solo {solo}, together {together:?}"
    );
}

#[test]
fn concurrent_restores_overlap_paper() {
    assert_restores_overlap(false);
}

#[test]
fn concurrent_restores_overlap_pipelined() {
    assert_restores_overlap(true);
}

// ----- (c) degraded restore: batched == serial ------------------------------

const DEGRADED_VAR_LEN: usize = 24 * CHUNK + 777;
const FAULTS_AT: VTime = VTime::from_secs(2);

/// One rank over RS(4,2) + `verify_reads`: checkpoint, lose benefactor 5,
/// rot every chunk on benefactor 2 (the rot draw is per chunk id, and the
/// two paths number parity chunks in different orders: anything short of
/// all of them compares two different fault sets), restore. Returns the restored bytes and the
/// `(degraded_reconstructs, crc_mismatches)` the restore counted.
fn degraded_restore(pipelined: bool) -> (Vec<u8>, (u64, u64)) {
    let job = JobConfig::remote(1, 1, 8).with_parity(4, 2);
    let fuse = FuseConfig {
        cache_bytes: 8 * CHUNK as u64,
        pipelined_io: pipelined,
        ..FuseConfig::default()
    };
    let store = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let cluster = cluster_for(&job, fuse, store);
    cluster.attach_faults(
        FaultPlanBuilder::new(0xD15EA5E)
            .bit_rot(FAULTS_AT, 2, 10_000)
            .crash(FAULTS_AT, 5)
            .build(),
    );
    let stats = cluster.stats.clone();
    let result = run_job(&cluster, &job, Calibration::default(), |ctx, env| {
        let var: NvmVec<u8> = env.client.ssdmalloc(ctx, DEGRADED_VAR_LEN).expect("alloc");
        var.write_slice(ctx, 0, &fill(3, DEGRADED_VAR_LEN))
            .expect("write");
        let ckpt = env
            .client
            .ssdcheckpoint(ctx, "degraded", &[], &[&var])
            .expect("checkpoint");
        assert!(ctx.now() < FAULTS_AT, "the write phase outgrew the fault");
        ctx.advance_to(FAULTS_AT + VTime::from_millis(1));
        let seen = |name| stats.get(name);
        let before = (
            seen("store.degraded_reconstructs"),
            seen("store.crc_mismatches"),
        );
        // Losses (one dead, one rotten member) stay within m = 2: the
        // restore must never surface `ChunkCorrupt`.
        let back: NvmVec<u8> = env
            .client
            .restore_var(ctx, &ckpt, 0)
            .expect("restore within the redundancy");
        let counted = (
            seen("store.degraded_reconstructs") - before.0,
            seen("store.crc_mismatches") - before.1,
        );
        let mut out = vec![0u8; DEGRADED_VAR_LEN];
        back.read_slice(ctx, 0, &mut out).expect("read back");
        (out, counted)
    });
    result.outputs.into_iter().next().expect("one rank")
}

#[test]
fn batched_restore_degrades_like_the_serial_one() {
    let (serial_bytes, serial_counts) = degraded_restore(false);
    let (batched_bytes, batched_counts) = degraded_restore(true);
    assert!(serial_bytes == fill(3, DEGRADED_VAR_LEN), "serial restore");
    assert!(batched_bytes == serial_bytes, "batched restore differs");
    assert!(serial_counts.0 > 0, "no chunk was reconstructed");
    assert!(serial_counts.1 > 0, "no rot was caught");
    assert_eq!(batched_counts, serial_counts);
}
