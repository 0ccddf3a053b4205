//! FUSE-layer behaviour tests: strided reads, read-ahead depth, prefetch
//! arrival semantics, flush granularity, and accounting edge cases.

use chunkstore::{
    AggregateStore, Benefactor, FileId, PlacementPolicy, StoreConfig, StoreError, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use fusemm::{FuseConfig, Mount, OP_OVERHEAD};
use netsim::Network;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

fn world(cfg: FuseConfig) -> (Mount, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(2, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b0.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, 512 * CHUNK, CHUNK));
    (Mount::new(store, 1, cfg, &stats), stats)
}

fn mk_file(m: &Mount, chunks: u64) -> FileId {
    m.create(
        VTime::ZERO,
        "/v",
        chunks * CHUNK,
        StripeSpec::all(),
        PlacementPolicy::RoundRobin,
    )
    .unwrap()
    .1
}

fn fill(m: &Mount, f: FileId, chunks: u64) -> VTime {
    let data: Vec<u8> = (0..(chunks * CHUNK) as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    m.flush_file(t, f).unwrap()
}

#[test]
fn strided_read_correctness_across_chunks() {
    let (m, _) = world(FuseConfig::default());
    let f = mk_file(&m, 8);
    let t = fill(&m, f, 8);
    // Runs of 100 bytes every 100_000 bytes: crosses chunk boundaries.
    let (run, stride, count) = (100u64, 100_000u64, 15u64);
    let mut out = vec![0u8; (run * count) as usize];
    m.read_strided(t, f, 50, run, stride, count, &mut out)
        .unwrap();
    for r in 0..count {
        for b in 0..run {
            let abs = (50 + r * stride + b) as usize;
            assert_eq!(out[(r * run + b) as usize], (abs % 251) as u8);
        }
    }
}

#[test]
fn strided_read_bounds_checked() {
    let (m, _) = world(FuseConfig::default());
    let f = mk_file(&m, 2);
    let mut out = vec![0u8; 200];
    let err = m
        .read_strided(VTime::ZERO, f, 2 * CHUNK - 150, 100, 100, 2, &mut out)
        .unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
}

#[test]
fn strided_read_counts_page_granular_requests() {
    let (m, stats) = world(FuseConfig::default());
    let f = mk_file(&m, 8);
    let t = fill(&m, f, 8);
    let before = stats.get("fuse.read_req_bytes");
    // 10 one-byte runs, each on its own page.
    let mut out = vec![0u8; 10];
    m.read_strided(t, f, 0, 1, 8192, 10, &mut out).unwrap();
    assert_eq!(stats.get("fuse.read_req_bytes") - before, 10 * 4096);
}

#[test]
fn deeper_readahead_prefetches_more() {
    for (depth, want_min) in [(1usize, 1u64), (3, 3)] {
        let (m, stats) = world(FuseConfig {
            cache_bytes: 16 * CHUNK,
            read_ahead_chunks: depth,
            ..FuseConfig::default()
        });
        let f = mk_file(&m, 16);
        let t = fill(&m, f, 16);
        let m2 = Mount::new(m.store().clone(), 1, *m.config(), &stats);
        let mut buf = vec![0u8; CHUNK as usize];
        let t1 = m2.read(t, f, 0, &mut buf).unwrap();
        m2.read(t1, f, CHUNK, &mut buf).unwrap(); // sequential → prefetch
        assert!(
            stats.get("fuse.readahead_fetches") >= want_min,
            "depth {depth}: {}",
            stats.get("fuse.readahead_fetches")
        );
    }
}

#[test]
fn prefetched_chunk_hit_waits_for_arrival() {
    let (m, _) = world(FuseConfig {
        cache_bytes: 16 * CHUNK,
        read_ahead_chunks: 1,
        ..FuseConfig::default()
    });
    let f = mk_file(&m, 8);
    let t = fill(&m, f, 8);
    let m2 = Mount::new(m.store().clone(), 1, *m.config(), &Default::default());
    let mut buf = vec![0u8; CHUNK as usize];
    let t1 = m2.read(t, f, 0, &mut buf).unwrap();
    let t2 = m2.read(t1, f, CHUNK, &mut buf).unwrap(); // issues prefetch of chunk 2
                                                       // An *immediate* access to the prefetched chunk cannot complete before
                                                       // the prefetch's own SSD time.
    let t3 = m2.read(t2, f, 2 * CHUNK, &mut buf).unwrap();
    assert!(t3 >= t2, "prefetch hit still respects ready_at");
}

#[test]
fn flush_chunk_is_selective() {
    let (m, stats) = world(FuseConfig::default());
    let f = mk_file(&m, 4);
    let page = vec![1u8; 4096];
    let mut t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    t = m.write(t, f, CHUNK, &page).unwrap();
    assert_eq!(m.dirty_chunks_of(f), vec![0, 1]);
    t = m.flush_chunk(t, f, 0).unwrap();
    assert_eq!(m.dirty_chunks_of(f), vec![1]);
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    m.flush_chunk(t, f, 1).unwrap();
    assert!(m.dirty_chunks_of(f).is_empty());
}

#[test]
fn dirty_page_runs_coalesce_in_writeback() {
    let (m, stats) = world(FuseConfig {
        cache_bytes: 2 * CHUNK,
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    });
    let f = mk_file(&m, 4);
    // Dirty pages 0,1,2 and 10 of chunk 0: two runs.
    let mut t = m.write(VTime::ZERO, f, 0, &vec![1u8; 3 * 4096]).unwrap();
    t = m.write(t, f, 10 * 4096, &[2u8; 100]).unwrap();
    m.flush_chunk(t, f, 0).unwrap();
    // 3 pages + 1 page shipped.
    assert_eq!(stats.get("fuse.writeback_bytes"), 4 * 4096);
    assert_eq!(stats.get("store.bytes_from_clients"), 4 * 4096);
}

#[test]
fn write_only_chunks_never_fetch_data() {
    let (m, stats) = world(FuseConfig::default());
    let f = mk_file(&m, 4);
    // Writing into unmaterialized space fetches only zero-fill metadata.
    m.write(VTime::ZERO, f, 0, &vec![1u8; (2 * CHUNK) as usize])
        .unwrap();
    assert_eq!(stats.get("store.bytes_to_clients"), 0);
    assert_eq!(stats.get("store.zero_fills"), 2);
}

#[test]
fn empty_reads_and_writes_are_free() {
    let (m, stats) = world(FuseConfig::default());
    let f = mk_file(&m, 1);
    let t0 = VTime::from_secs(5);
    assert_eq!(m.read(t0, f, 0, &mut []).unwrap(), t0);
    assert_eq!(m.write(t0, f, 0, &[]).unwrap(), t0);
    assert_eq!(stats.get("fuse.read_req_bytes"), 0);
    assert_eq!(stats.get("fuse.write_req_bytes"), 0);
}

#[test]
fn lru_eviction_order_is_strict() {
    let (m, _) = world(FuseConfig {
        cache_bytes: 3 * CHUNK,
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    });
    let f = mk_file(&m, 8);
    let t = fill(&m, f, 8);
    let m2 = Mount::new(m.store().clone(), 1, *m.config(), &Default::default());
    let stats = StatsRegistry::new();
    let _ = stats;
    let mut buf = [0u8; 16];
    // Touch 0,1,2 then re-touch 0: LRU is 1.
    let mut t2 = t;
    for idx in [0u64, 1, 2, 0] {
        t2 = m2.read(t2, f, idx * CHUNK, &mut buf).unwrap();
    }
    // Insert 3 → evicts 1. A re-read of 0 and 2 must still hit.
    let (hits_before, fetches_before) = {
        let s = m2.store();
        let _ = s;
        (0, 0)
    };
    let _ = (hits_before, fetches_before);
    t2 = m2.read(t2, f, 3 * CHUNK, &mut buf).unwrap();
    let t3 = m2.read(t2, f, 0, &mut buf).unwrap();
    let t4 = m2.read(t3, f, 2 * CHUNK, &mut buf).unwrap();
    // Hits cost only op overhead.
    assert_eq!(t3 - t2, OP_OVERHEAD);
    assert_eq!(t4 - t3, OP_OVERHEAD);
    // Chunk 1 was evicted: reading it costs a real fetch.
    let t5 = m2.read(t4, f, CHUNK, &mut buf).unwrap();
    assert!(t5 - t4 > OP_OVERHEAD * 10);
}
