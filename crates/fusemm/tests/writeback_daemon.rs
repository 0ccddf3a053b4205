//! Write-back daemon behaviour tests (DESIGN.md §10): background flushing
//! off the foreground clock, hard-limit throttling, flush-failure retry
//! under benefactor crashes, and segmented-cache scan resistance.

use chunkstore::{AggregateStore, Benefactor, FileId, PlacementPolicy, StoreConfig, StripeSpec};
use devices::{Ssd, INTEL_X25E};
use faults::FaultPlanBuilder;
use fusemm::{FuseConfig, Mount};
use netsim::Network;
use obs::TraceRecorder;
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const PAGE: usize = 4096;

/// 3-node world: manager+benefactor on node 0, benefactor on node 1,
/// client mount on node 2.
fn world(cfg: FuseConfig) -> (Mount, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(3, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in [0usize, 1] {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(256), CHUNK));
    }
    (Mount::new(store, 2, cfg, &stats), stats)
}

fn small_cache() -> FuseConfig {
    FuseConfig {
        cache_bytes: 4 * CHUNK, // four entries
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    }
}

fn mk_file(m: &Mount, name: &str, size: u64) -> FileId {
    m.create(
        VTime::ZERO,
        name,
        size,
        StripeSpec::all(),
        PlacementPolicy::RoundRobin,
    )
    .unwrap()
    .1
}

/// Dirty one page at the start of each of `chunks` chunks, threading the
/// virtual clock; returns the foreground clock after the last write.
fn dirty_chunks(m: &Mount, f: FileId, chunks: u64, fill: u8) -> VTime {
    let page = vec![fill; PAGE];
    let mut t = VTime::ZERO;
    for c in 0..chunks {
        t = m.write(t, f, c * CHUNK, &page).unwrap();
    }
    t
}

#[test]
fn background_flusher_cleans_dirty_chunks_off_the_foreground_clock() {
    // Past the background threshold the flusher batches oldest-dirty
    // chunks out without charging the writer; the foreground clock is
    // bit-identical to a run with the daemon off.
    let baseline = {
        let (m, _) = world(small_cache());
        let f = mk_file(&m, "/v", 4 * CHUNK);
        dirty_chunks(&m, f, 4, 7)
    };

    let (m, stats) = world(small_cache().with_writeback(0.5, 1.0));
    let f = mk_file(&m, "/v", 4 * CHUNK);
    let t = dirty_chunks(&m, f, 4, 7);

    assert_eq!(t, baseline, "background flushing is free for the writer");
    assert!(stats.get("fuse.bg_flushes") >= 1, "daemon woke up");
    assert!(stats.get("fuse.bg_writeback_bytes") >= PAGE as u64);
    assert_eq!(stats.get("fuse.throttled_writes"), 0, "hard=1.0: no stalls");
    assert!(
        m.dirty_chunk_count() < 4,
        "some dirty chunks were cleaned in the background"
    );

    // Background-flushed data is durable: a cold mount reads it back.
    let t = m.flush_all(t).unwrap();
    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; PAGE];
    m2.read(t, f, 3 * CHUNK, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 7));
}

#[test]
fn daemon_takes_dirty_eviction_off_the_read_path() {
    // Fill a 4-chunk cache with dirty chunks, then stream reads through
    // it. Demand eviction pays a synchronous write-back per miss; with
    // the daemon + segmented cache the flusher has already cleaned the
    // victims, so the read phase is strictly faster.
    let read_phase = |cfg: FuseConfig, stats_out: &mut Option<StatsRegistry>| -> VTime {
        let (m, stats) = world(cfg);
        let f = mk_file(&m, "/v", 8 * CHUNK);
        let t0 = dirty_chunks(&m, f, 4, 9);
        let mut t = t0;
        let mut buf = vec![0u8; PAGE];
        for c in 4..8 {
            t = m.read(t, f, c * CHUNK, &mut buf).unwrap();
        }
        *stats_out = Some(stats);
        t - t0
    };

    let mut demand_stats = None;
    let demand = read_phase(small_cache(), &mut demand_stats);
    let mut daemon_stats = None;
    let daemon = read_phase(
        small_cache().with_writeback(0.25, 1.0).with_seg_cache(),
        &mut daemon_stats,
    );

    assert!(
        daemon < demand,
        "daemon read phase {daemon:?} should beat demand eviction {demand:?}"
    );
    let stats = daemon_stats.unwrap();
    assert!(stats.get("fuse.bg_flushes") >= 1);
    assert!(
        stats.get("fuse.clean_evictions") >= 1,
        "reads evicted chunks the flusher had already cleaned"
    );
    assert_eq!(demand_stats.unwrap().get("fuse.clean_evictions"), 0);
}

#[test]
fn writer_outrunning_flusher_throttles_at_the_hard_limit() {
    // bg=0.25, hard=0.5 on a 4-chunk cache: at most 2 dirty chunks may
    // exist at any virtual instant; a writer dirtying 8 chunks faster
    // than the flusher drains must stall (balance_dirty_pages).
    let cfg = small_cache().with_writeback(0.25, 0.5);
    let hard = cfg.dirty_hard_ratio;
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let t = dirty_chunks(&m, f, 8, 3);

    assert!(
        stats.get("fuse.throttled_writes") >= 1,
        "writer outran the flusher and stalled"
    );
    assert!(
        m.max_dirty_ratio() <= hard,
        "dirty ratio {} never exceeds dirty_hard_ratio {hard} at any instant",
        m.max_dirty_ratio()
    );

    // Throttled writes still land: verify every page after a full flush.
    let t = m.flush_all(t).unwrap();
    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; PAGE];
    let mut t2 = t;
    for c in 0..8 {
        t2 = m2.read(t2, f, c * CHUNK, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 3), "chunk {c} readable");
    }
}

#[test]
fn the_off_value_wakes_no_flusher_and_throttles_no_writer_with_every_slot_dirty() {
    // 1.0 is the daemon's off value, not a branch. With every cache slot
    // dirty both boundaries sit exactly at the capacity: that dirty count
    // is not past the background threshold, and rewriting an
    // already-dirty chunk adds no dirty chunk against the hard limit.
    let cfg = FuseConfig::default();
    let slots = cfg.cache_bytes / CHUNK;
    let (m, stats) = world(cfg);
    let trace = TraceRecorder::enabled(&stats);
    let m = m.with_tracer(trace.clone());
    let f = mk_file(&m, "/v", slots * CHUNK);
    let t = dirty_chunks(&m, f, slots, 9);
    assert_eq!(m.dirty_chunk_count() as u64, slots);

    let t = m.write(t, f, 3 * CHUNK + PAGE as u64, &[1; PAGE]).unwrap();
    let mut out = vec![0u8; PAGE];
    m.read(t, f, 5 * CHUNK, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 9));

    assert_eq!(m.dirty_chunk_count() as u64, slots);
    assert_eq!(stats.get("fuse.evictions"), 0);
    assert_eq!(stats.get("fuse.bg_flushes"), 0);
    assert_eq!(stats.get("fuse.throttled_writes"), 0);
    let spans = trace.spans();
    assert!(spans.iter().any(|s| s.name == "fuse.write"));
    assert!(spans.iter().all(|s| s.name != "fuse.bg_flush"));
}

#[test]
fn daemon_runs_are_deterministic() {
    let run = || {
        let cfg = small_cache().with_writeback(0.25, 0.5).with_seg_cache();
        let (m, stats) = world(cfg);
        let f = mk_file(&m, "/v", 8 * CHUNK);
        let mut t = dirty_chunks(&m, f, 8, 5);
        let mut buf = vec![0u8; PAGE];
        for c in 0..8 {
            t = m.read(t, f, c * CHUNK, &mut buf).unwrap();
        }
        (
            t,
            stats.get("fuse.bg_flushes"),
            stats.get("fuse.throttled_writes"),
            stats.get("fuse.clean_evictions"),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn crashed_benefactor_leaves_dirty_bits_for_a_later_flush() {
    // A crash mid-flush fails the batch *before* any dirty bit clears;
    // once the benefactor recovers, a retry flushes the same pages.
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    dirty_chunks(&m, f, 2, 11);
    assert_eq!(m.dirty_chunk_count(), 2);

    m.store().attach_faults(
        FaultPlanBuilder::new(42)
            .crash(VTime::from_millis(1), 0)
            .recover(VTime::from_secs(10), 0)
            .build(),
    );

    // Unreplicated chunks homed on the dead benefactor cannot flush.
    let err = m.flush_file(VTime::from_millis(2), f);
    assert!(err.is_err(), "flush into a dead benefactor fails");
    assert_eq!(stats.get("store.benefactor_crashes"), 1);
    assert!(
        m.dirty_chunk_count() >= 1,
        "failed flush leaves dirty bits set for retry"
    );

    // After the scheduled recovery the retry drains everything.
    let t = m.flush_file(VTime::from_secs(11), f).unwrap();
    assert_eq!(m.dirty_chunk_count(), 0);
    assert_eq!(stats.get("store.benefactor_recoveries"), 1);

    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; PAGE];
    let mut t2 = t;
    for c in 0..2 {
        t2 = m2.read(t2, f, c * CHUNK, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 11), "chunk {c} survived the retry");
    }
}

#[test]
fn replicated_flush_survives_crash_and_repair_restores_degree() {
    // With replicas=2 a crash degrades rather than fails the data path:
    // reads fail over, a flush while degraded lands on the survivor, and
    // repair re-replicates once the benefactor returns.
    let (m, stats) = world(small_cache());
    let f = m
        .create(
            VTime::ZERO,
            "/v",
            2 * CHUNK,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap()
        .1;
    let t = dirty_chunks(&m, f, 2, 13);
    let t = m.flush_file(t, f).unwrap(); // fully replicated, pre-crash

    m.store().attach_faults(
        FaultPlanBuilder::new(7)
            .crash(VTime::from_millis(1), 0)
            .recover(VTime::from_secs(10), 0)
            .build(),
    );

    // A cold mount after the crash reads through the degraded store.
    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; PAGE];
    let t = m2
        .read(t.max(VTime::from_millis(2)), f, 0, &mut out)
        .unwrap();
    assert!(out.iter().all(|&b| b == 13));
    assert!(stats.get("store.failovers") > 0);
    assert!(stats.get("store.degraded_reads") > 0);

    // A flush while degraded succeeds on the survivor, dropping the dead
    // copy from the home list.
    let page = vec![17u8; PAGE];
    let t = m2.write(t, f, 0, &page).unwrap();
    let t = m2.flush_file(t, f).unwrap();
    assert_eq!(m2.dirty_chunk_count(), 0);
    assert!(!m2.store().manager().under_replicated().is_empty());

    // After recovery, repair restores the replica degree.
    let (t, report) = m2
        .store()
        .repair_under_replicated(t.max(VTime::from_secs(11)));
    assert!(report.chunks_repaired >= 1);
    assert_eq!(report.chunks_unrepairable, 0);
    assert!(stats.get("store.repairs_chunks") >= 1);
    assert!(m2.store().manager().under_replicated().is_empty());

    let m3 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; PAGE];
    m3.read(t, f, 0, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 17));
}

#[test]
fn segmented_cache_protects_the_working_set_from_a_scan() {
    // Re-referenced chunks live in the protected segment; a one-touch
    // streaming scan can only churn probation and cannot evict them.
    let (m, stats) = world(FuseConfig {
        seg_cache: true,
        ..small_cache()
    });
    let f = mk_file(&m, "/v", 16 * CHUNK);
    let mut buf = vec![0u8; PAGE];

    // Touch chunk 0 twice: second reference promotes it to protected.
    let mut t = m.read(VTime::ZERO, f, 0, &mut buf).unwrap();
    t = m.read(t, f, 0, &mut buf).unwrap();

    // Stream the rest of the file once through the 4-chunk cache.
    for c in 1..16 {
        t = m.read(t, f, c * CHUNK, &mut buf).unwrap();
    }

    // The hot chunk survived the scan: no new fetch, and the protected
    // hit is visible on the counter.
    let fetches = stats.get("store.chunk_fetches");
    let hits = stats.get("fuse.scan_protected_hits");
    m.read(t, f, 0, &mut buf).unwrap();
    assert_eq!(
        stats.get("store.chunk_fetches"),
        fetches,
        "protected chunk still resident after the scan"
    );
    assert!(stats.get("fuse.scan_protected_hits") > hits);
}
