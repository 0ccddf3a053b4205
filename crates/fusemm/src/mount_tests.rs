//! Unit tests for the mount data path.

use crate::mount::{FuseConfig, Mount, OP_OVERHEAD};
use chunkstore::{
    AggregateStore, Benefactor, ChunkBuf, FileId, Leaf, PlacementPolicy, StoreConfig, StoreError,
    StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

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
        cache_bytes: 2 * CHUNK, // two entries
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

/// The payload chunk `idx` of `f` is stored as, on its (first) home.
fn stored(m: &Mount, f: FileId, idx: usize) -> ChunkBuf {
    let mgr = m.store().manager();
    let c = match mgr.file(f).unwrap().slots[idx] {
        chunkstore::Slot::Chunk(c) => c,
        slot => panic!("not materialized: {slot:?}"),
    };
    let home = mgr.chunk_home(c).unwrap();
    mgr.benefactor(home).peek_chunk(c).unwrap().clone()
}

#[test]
fn write_read_roundtrip_through_cache() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 4 * CHUNK);
    let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    let t = m.write(VTime::ZERO, f, 123_456, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    m.read(t, f, 123_456, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn ranges_whose_end_overflows_are_out_of_bounds() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let mut buf = [0u8; 8];
    let err = m.read(VTime::ZERO, f, u64::MAX, &mut buf).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    let err = m.write(VTime::ZERO, f, u64::MAX - 3, &buf).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    // The second run would start at 8 + u64::MAX.
    let mut out = [0u8; 16];
    let err = m
        .read_strided(VTime::ZERO, f, 8, 8, u64::MAX, 2, &mut out)
        .unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    assert_eq!(stats.get("fuse.read_req_bytes"), 0);
    assert_eq!(stats.get("fuse.misses"), 0);
}

#[test]
fn reads_of_unwritten_space_are_zero() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let mut out = vec![0xFFu8; 100];
    m.read(VTime::ZERO, f, CHUNK - 50, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0));
}

#[test]
fn cache_hit_avoids_store_traffic() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let mut buf = [0u8; 64];
    let t = m.read(VTime::ZERO, f, 0, &mut buf).unwrap();
    let fetches = stats.get("store.chunk_fetches");
    let t2 = m.read(t, f, 64, &mut buf).unwrap();
    assert_eq!(stats.get("store.chunk_fetches"), fetches, "hit: no fetch");
    assert_eq!(stats.get("fuse.hits"), 1);
    // A hit costs only the FUSE op overhead.
    assert_eq!(t2 - t, OP_OVERHEAD);
}

#[test]
fn eviction_writes_back_only_dirty_pages() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Dirty one page of chunk 0.
    let page = vec![1u8; 4096];
    let mut t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    // Touch chunks 1, 2 → evicts chunk 0 (capacity 2).
    let mut buf = [0u8; 8];
    t = m.read(t, f, CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    let _ = t;
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    assert_eq!(stats.get("store.bytes_from_clients"), 4096);
    assert!(stats.get("fuse.evictions") >= 1);
}

#[test]
fn pipelined_eviction_counts_async_writebacks() {
    let cfg = FuseConfig {
        cache_bytes: 2 * CHUNK,
        read_ahead_chunks: 0,
        pipelined_io: true,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Dirty one page of chunk 0, then stream chunks 1 and 2 through the
    // 2-entry cache: the second miss must evict dirty chunk 0 through the
    // asynchronous batched write-back (make_room_n), not a synchronous
    // flush.
    let page = vec![1u8; 4096];
    let t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    assert_eq!(stats.get("fuse.async_writebacks"), 0);
    let mut buf = [0u8; 8];
    let t = m.read(t, f, CHUNK, &mut buf).unwrap();
    let t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    assert_eq!(stats.get("fuse.async_writebacks"), 1);
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    assert_eq!(stats.get("store.bytes_from_clients"), 4096);
    // The background write still landed: chunk 0 re-reads with the data.
    let mut back = vec![0u8; 4096];
    m.read(t, f, 0, &mut back).unwrap();
    assert_eq!(back, page);
}

#[test]
fn whole_chunk_writeback_without_optimization() {
    let cfg = FuseConfig {
        dirty_page_writeback: false,
        ..small_cache()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let page = vec![1u8; 4096];
    let mut t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    let mut buf = [0u8; 8];
    t = m.read(t, f, CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    let _ = t;
    assert_eq!(stats.get("fuse.writeback_bytes"), CHUNK);
}

#[test]
fn evicted_dirty_data_survives() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let data = vec![0x5Au8; 5000];
    let mut t = m.write(VTime::ZERO, f, 100, &data).unwrap();
    // Force eviction of chunk 0 by touching three other chunks.
    let mut buf = [0u8; 8];
    for i in 1..=3 {
        t = m.read(t, f, i * CHUNK, &mut buf).unwrap();
    }
    let mut out = vec![0u8; data.len()];
    m.read(t, f, 100, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn o_rdwr_visibility_across_mounts() {
    // Two mounts on different nodes; a write through one is immediately
    // readable through the other once flushed (shared backing store) —
    // and *within* one node, immediately even without a flush.
    let stats = StatsRegistry::new();
    let net = Network::new(3, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b0.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, mib(256), CHUNK));
    let m1 = Mount::new(store.clone(), 1, FuseConfig::default(), &stats);
    let m2 = Mount::new(store.clone(), 2, FuseConfig::default(), &stats);

    let f = mk_file(&m1, "/shared", CHUNK);
    let data = vec![9u8; 1000];
    let mut t = m1.write(VTime::ZERO, f, 0, &data).unwrap();
    t = m1.flush_file(t, f).unwrap();

    let (t2, found) = m2.open(t, "/shared").unwrap();
    assert_eq!(found, Some(f));
    let mut out = vec![0u8; 1000];
    m2.read(t2, f, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn cached_chunk_is_a_snapshot_of_the_benefactor_copy() {
    // The cache entry shares the leaves the benefactor stores. Rot on the
    // benefactor, and a write that reaches it from elsewhere, must un-share
    // what they touch: what this mount fetched is what its hits keep
    // returning.
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let data = vec![7u8; CHUNK as usize];
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let t = m.flush_file(t, f).unwrap();
    let cold = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; CHUNK as usize];
    let t = cold.read(t, f, 0, &mut out).unwrap();

    let store = m.store();
    let c = match store.manager().file(f).unwrap().slots[0] {
        chunkstore::Slot::Chunk(c) => c,
        slot => panic!("not materialized: {slot:?}"),
    };
    let home = store.manager().chunk_home(c).unwrap();
    store.manager().benefactor_mut(home).corrupt_chunk(c, 100);
    store
        .write_pages(t, 2, f, 0, &[(8192, &[9u8; 4096])])
        .unwrap();

    let hits = stats.get("fuse.hits");
    cold.read(t, f, 0, &mut out).unwrap();
    assert_eq!(stats.get("fuse.hits"), hits + 1, "served from the cache");
    assert_eq!(out, data);
    // Leaf 0 rotted, leaf 2 was rewritten: the other 62 are still shared.
    let cached = cold.cached(f, 0).unwrap();
    assert_eq!(cached.shared_leaves(&stored(&m, f, 0)), 62);
}

#[test]
fn hole_written_through_one_mount_stays_zero_in_the_other() {
    // Both mounts cache the same shared zero chunk for the hole; the
    // write through one takes a private copy of the one leaf it touches.
    let (m1, stats) = world(small_cache());
    let m2 = Mount::new(m1.store().clone(), 2, small_cache(), &stats);
    let f = mk_file(&m1, "/v", CHUNK);
    let mut out = vec![0xFFu8; 64];
    let t = m1.read(VTime::ZERO, f, 0, &mut out).unwrap();
    let t = m2.read(t, f, 0, &mut out).unwrap();
    let t = m1.write(t, f, 0, &[3u8; 64]).unwrap();
    let hits = stats.get("fuse.hits");
    m2.read(t, f, 0, &mut out).unwrap();
    assert_eq!(stats.get("fuse.hits"), hits + 1, "served from m2's cache");
    assert_eq!(out, [0u8; 64]);
    let zeros = chunkstore::zero_chunk(CHUNK);
    assert!(zeros == [0u8; CHUNK as usize][..]);
    assert_eq!(m2.cached(f, 0).unwrap().shared_leaves(&zeros), 64);
    assert_eq!(m1.cached(f, 0).unwrap().shared_leaves(&zeros), 63);
    m1.read(t, f, 0, &mut out).unwrap();
    assert_eq!(out, [3u8; 64]);
}

#[test]
fn write_back_hands_dirty_pages_over_without_copying_them() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let shared = |idx: usize| m.cached(f, idx).unwrap().shared_leaves(&stored(&m, f, idx));
    // A fresh chunk: every written page reaches the benefactor as the
    // allocation the cache holds.
    let t = m
        .write(VTime::ZERO, f, 0, &vec![7u8; CHUNK as usize])
        .unwrap();
    let t = m.flush_all(t).unwrap();
    assert_eq!(shared(0), 64);
    // Dirtying a whole page and part of another un-shares exactly those
    // two; the flush hands both over again.
    let t = m.write(t, f, 4096, &[1u8; 4096]).unwrap();
    let t = m.write(t, f, 3 * 4096 + 10, &[2u8; 5]).unwrap();
    assert_eq!(shared(0), 62);
    let t = m.flush_all(t).unwrap();
    assert_eq!(shared(0), 64);
    let on_media = stored(&m, f, 0);
    assert_eq!((on_media[4096], on_media[3 * 4096 + 10]), (1, 2));
    // From here either side diverges one leaf at a time: a cache write…
    let t = m.write(t, f, 5 * 4096, &[3u8; 8]).unwrap();
    assert_eq!(shared(0), 63);
    // …or rot on the benefactor.
    {
        let mut mgr = m.store().manager();
        let c = match mgr.file(f).unwrap().slots[0] {
            chunkstore::Slot::Chunk(c) => c,
            slot => panic!("not materialized: {slot:?}"),
        };
        let home = mgr.chunk_home(c).unwrap();
        mgr.benefactor_mut(home).corrupt_chunk(c, 9 * 4096);
    }
    assert_eq!(shared(0), 62);
    // Eviction moves the dirty page from cache to benefactor: the
    // benefactor ends up holding the very leaf the cache entry held.
    let dirty_leaf = m.cached(f, 0).unwrap().leaf(5).clone();
    let mut buf = [0u8; 8];
    let t = m.read(t, f, CHUNK, &mut buf).unwrap();
    m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    assert!(m.cached(f, 0).is_none(), "chunk 0 was evicted");
    assert!(chunkstore::Leaf::ptr_eq(
        stored(&m, f, 0).leaf(5),
        &dirty_leaf
    ));
}

#[test]
fn a_set_to_a_fetched_chunk_copies_one_page_and_its_eviction_lands_in_place() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 4 * CHUNK);
    let t = m
        .write(VTime::ZERO, f, 0, &vec![7u8; CHUNK as usize])
        .unwrap();
    let t = m.flush_all(t).unwrap();
    // A cold mount fetches chunk 0 and sets 8 bytes of page 5: the cache
    // copies that page and shares the other 63 with the benefactor's copy.
    let cold = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let held: Vec<Leaf> = stored(&m, f, 0).leaves().cloned().collect();
    let t = cold.write(t, f, 5 * 4096 + 16, &[0xAB; 8]).unwrap();
    let written = {
        let cached = cold.cached(f, 0).unwrap();
        assert_eq!(cached.shared_leaves(&stored(&m, f, 0)), 63);
        assert_eq!(cached.owned_leaves(), 1);
        cached.leaf(5).clone()
    };
    // Two more chunks evict it: the benefactor's copy takes the very leaf
    // the cache wrote and keeps the 63 allocations it held before the set.
    let mut buf = [0u8; 8];
    let t = cold.read(t, f, CHUNK, &mut buf).unwrap();
    cold.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    assert!(cold.cached(f, 0).is_none(), "chunk 0 was evicted");
    let on_media = stored(&m, f, 0);
    assert_eq!(on_media[5 * 4096 + 16], 0xAB);
    assert!(Leaf::ptr_eq(on_media.leaf(5), &written));
    for (i, (now, was)) in on_media.leaves().zip(&held).enumerate() {
        assert_eq!(Leaf::ptr_eq(now, was), i != 5, "leaf {i}");
    }
    // The victim went before its page shipped, so the copy held its table
    // alone and took the page in place: it owns no leaf over a shared base.
    assert_eq!(on_media.owned_leaves(), 0);
}

#[test]
fn a_flush_that_keeps_its_entry_still_lands_in_place() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let t = m
        .write(VTime::ZERO, f, 0, &vec![7u8; CHUNK as usize])
        .unwrap();
    let t = m.flush_all(t).unwrap();
    let cold = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let t = cold.write(t, f, 5 * 4096 + 16, &[0xAB; 8]).unwrap();
    cold.flush_all(t).unwrap();
    // The entry took a table of its own before the flush, so the
    // benefactor's copy held its base alone and took the page in place.
    let (cached, on_media) = (cold.cached(f, 0).unwrap(), stored(&m, f, 0));
    assert_eq!((cached.owned_leaves(), on_media.owned_leaves()), (0, 0));
    assert_eq!(cached.shared_leaves(&on_media), 64);
    assert_eq!(on_media[5 * 4096 + 16], 0xAB);
}

#[test]
fn flush_clears_dirty_but_keeps_cached() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let data = vec![3u8; 100];
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let t = m.flush_file(t, f).unwrap();
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    // Second flush: nothing dirty.
    m.flush_all(t).unwrap();
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    // Still a cache hit afterwards.
    let hits = stats.get("fuse.hits");
    let mut out = vec![0u8; 100];
    m.read(t, f, 0, &mut out).unwrap();
    assert_eq!(stats.get("fuse.hits"), hits + 1);
    assert_eq!(out, data);
}

#[test]
fn sequential_read_triggers_readahead() {
    let cfg = FuseConfig {
        cache_bytes: 8 * CHUNK,
        read_ahead_chunks: 1,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Materialize all chunks so prefetch has real data to pull.
    let big = vec![1u8; (8 * CHUNK) as usize];
    let t = m.write(VTime::ZERO, f, 0, &big).unwrap();
    let t = m.flush_file(t, f).unwrap();

    // Fresh mount (cold cache) on the same node type.
    let (m2, stats2) = (m.clone(), stats.clone());
    {
        // Invalidate by deleting… instead, just use a new mount instance.
    }
    let m3 = Mount::new(m2.store().clone(), 2, cfg, &stats2);
    let mut buf = vec![0u8; CHUNK as usize];
    let t1 = m3.read(t, f, 0, &mut buf).unwrap(); // miss, not sequential yet
    assert_eq!(stats2.get("fuse.readahead_fetches"), 0);
    let t2 = m3.read(t1, f, CHUNK, &mut buf).unwrap(); // sequential → prefetch
    assert!(stats2.get("fuse.readahead_fetches") >= 1);
    // Third chunk is already resident: hit.
    let misses = stats2.get("fuse.misses");
    m3.read(t2, f, 2 * CHUNK, &mut buf).unwrap();
    assert_eq!(
        stats2.get("fuse.misses"),
        misses,
        "prefetched chunk is a hit"
    );
}

#[test]
fn random_reads_do_not_prefetch() {
    let cfg = FuseConfig {
        cache_bytes: 8 * CHUNK,
        read_ahead_chunks: 2,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let mut buf = [0u8; 64];
    let mut t = m.read(VTime::ZERO, f, 5 * CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    m.read(t, f, 7 * CHUNK, &mut buf).unwrap();
    assert_eq!(stats.get("fuse.readahead_fetches"), 0);
}

#[test]
fn out_of_bounds_rejected() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let mut buf = [0u8; 2];
    let err = m.read(VTime::ZERO, f, CHUNK - 1, &mut buf).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    let err = m.write(VTime::ZERO, f, CHUNK, &[1]).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
}

#[test]
fn delete_discards_cache_and_file() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let t = m.write(VTime::ZERO, f, 0, &[1, 2, 3]).unwrap();
    let t = m.delete(t, f).unwrap();
    let mut buf = [0u8; 1];
    let err = m.read(t, f, 0, &mut buf).unwrap_err();
    assert_eq!(err, StoreError::NoSuchFile);
    // Name can be reused.
    mk_file(&m, "/v", CHUNK);
}

#[test]
fn request_bytes_counted_at_page_granularity() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    // A single-byte write arrives at FUSE as one 4 KiB page.
    m.write(VTime::ZERO, f, 10, &[7]).unwrap();
    assert_eq!(stats.get("fuse.write_req_bytes"), 4096);
    let mut b = [0u8; 1];
    m.read(VTime::ZERO, f, 4095, &mut b).unwrap();
    assert_eq!(stats.get("fuse.read_req_bytes"), 4096);
    // A straddling 2-byte read touches two pages.
    let mut b2 = [0u8; 2];
    m.read(VTime::ZERO, f, 4095, &mut b2).unwrap();
    assert_eq!(stats.get("fuse.read_req_bytes"), 4096 + 8192);
}

#[test]
fn failover_is_transparent_to_the_mount() {
    // A replicated file keeps serving reads through the FUSE layer after
    // its primary benefactor dies — no error surfaces, only the
    // store-level failover counters move.
    let (m, stats) = world(small_cache());
    let f = m
        .create(
            VTime::ZERO,
            "/v",
            4 * CHUNK,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap()
        .1;
    let data: Vec<u8> = (0..(2 * CHUNK as usize)).map(|i| (i % 251) as u8).collect();
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let t = m.flush_file(t, f).unwrap();

    m.store()
        .set_benefactor_alive(chunkstore::BenefactorId(0), false);
    // A cold mount forces every read through the (degraded) store.
    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; data.len()];
    m2.read(t, f, 0, &mut out).unwrap();
    assert_eq!(out, data);
    assert!(stats.get("store.failovers") > 0);
    assert!(stats.get("store.degraded_reads") > 0);
}

#[test]
fn local_benefactor_faster_than_remote() {
    // Mount on node 0 (co-located with benefactor 0) vs mount on node 2.
    let stats = StatsRegistry::new();
    let net = Network::new(3, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b0.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, mib(256), CHUNK));

    let cfg = FuseConfig {
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    };
    let local = Mount::new(store.clone(), 0, cfg, &stats);
    let remote = Mount::new(store.clone(), 2, cfg, &stats);

    let f = mk_file(&local, "/v", 4 * CHUNK);
    let big = vec![1u8; (4 * CHUNK) as usize];
    let t0 = local.write(VTime::ZERO, f, 0, &big).unwrap();
    let t0 = local.flush_file(t0, f).unwrap();

    let mut buf = vec![0u8; CHUNK as usize];
    let t_local = local.read(t0, f, 2 * CHUNK, &mut buf).unwrap() - t0;

    let t_remote = remote.read(t0, f, 3 * CHUNK, &mut buf).unwrap() - t0;
    assert!(
        t_remote > t_local,
        "remote {t_remote} should exceed local {t_local}"
    );
}

// ----- one data path, two policies (DESIGN.md §8) ----------------------------

fn pipelined(cfg: FuseConfig) -> FuseConfig {
    FuseConfig {
        pipelined_io: true,
        ..cfg
    }
}

/// The restart path's leaves: a bulk window is one chunk on the paper
/// path and one stripe row when batched. The caller cuts a transfer into
/// such windows, as `nvmalloc` does, and each direct call is one store
/// call (one manager resolution here: the write places, and no fetch finds
/// a cached location) that moves whole chunks between caller and store
/// without touching the cache. A 3-chunk fetch is three windows on the
/// paper path and two stripe rows when batched.
#[test]
fn direct_transfers_go_past_the_cache_a_policy_window_at_a_time() {
    for (cfg, window, rpcs) in [(small_cache(), 1, 5), (pipelined(small_cache()), 2, 3)] {
        let (m, stats) = world(cfg);
        let f = mk_file(&m, "/v", 3 * CHUNK);
        assert_eq!(m.bulk_window(f).unwrap(), window);

        let body = |idx: usize| ChunkBuf::from_bytes(&vec![idx as u8 + 1; CHUNK as usize]);
        // Chunk 1 stays a hole; chunk 2 is written short.
        let chunks = [(0, body(0)), (2, body(2).head(5000))];
        let before = stats.get("store.mgr_rpcs");
        let mut calls = 0;
        let mut t = VTime::ZERO;
        for slab in chunks.chunks(window) {
            t = m.write_direct(t, f, slab).unwrap();
            calls += 1;
        }
        let mut fetched = Vec::new();
        for first in (0..3).step_by(window) {
            let got = m.fetch_direct(t, f, first, window.min(3 - first)).unwrap();
            assert!(got.iter().all(|(ready, _)| *ready > t));
            t = got.iter().fold(t, |t, (ready, _)| t.max(*ready));
            fetched.extend(got);
            calls += 1;
        }
        assert_eq!(stats.get("store.mgr_rpcs") - before, calls);
        assert_eq!(calls, rpcs);
        let bytes: Vec<ChunkBuf> = fetched
            .into_iter()
            .map(|(_, p)| p.into_buf(m.store().config()))
            .collect();
        assert!(bytes[0] == body(0).to_vec()[..]);
        assert!(bytes[1] == vec![0u8; CHUNK as usize][..]);
        assert!(bytes[2].to_vec()[..5000] == body(2).to_vec()[..5000]);
        assert!(bytes[2].to_vec()[5000..].iter().all(|&b| b == 0));
        // The written leaves were handed over, not copied.
        assert_eq!(stored(&m, f, 0).shared_leaves(&chunks[0].1), 64);

        let untouched = [
            "fuse.hits",
            "fuse.misses",
            "fuse.evictions",
            "fuse.read_req_bytes",
        ];
        assert!(untouched.iter().all(|c| stats.get(c) == 0));
        assert!(m.cached(f, 0).is_none());
    }
}

#[test]
fn flush_ships_whole_chunks_without_the_write_optimization() {
    // Table VII's "w/o optimization" run: with `dirty_page_writeback` off
    // a flush ships the whole chunk, exactly as eviction does — in both
    // policies (flush used to ship dirty-page runs regardless).
    for cfg in [small_cache(), pipelined(small_cache())] {
        let (m, stats) = world(FuseConfig {
            dirty_page_writeback: false,
            ..cfg
        });
        let f = mk_file(&m, "/v", 2 * CHUNK);
        let t = m.write(VTime::ZERO, f, 0, &vec![1u8; 4096]).unwrap();
        m.flush_file(t, f).unwrap();
        assert_eq!(stats.get("fuse.writeback_bytes"), CHUNK);
        assert_eq!(stats.get("store.bytes_from_clients"), CHUNK);
    }
}

#[test]
fn paper_window_is_one_segment_not_one_chunk() {
    // 16 strided runs inside one cached chunk: the paper path looks the
    // chunk up once per run (16 hits); the pipelined window covers all 16
    // segments with one lookup.
    for (cfg, lookups) in [(small_cache(), 16), (pipelined(small_cache()), 1)] {
        let (m, stats) = world(cfg);
        let f = mk_file(&m, "/v", 2 * CHUNK);
        let data: Vec<u8> = (0..CHUNK as usize).map(|i| (i % 253) as u8).collect();
        let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
        let (hits, misses) = (stats.get("fuse.hits"), stats.get("fuse.misses"));
        let mut out = vec![0u8; 16 * 64];
        m.read_strided(t, f, 100, 64, 8192, 16, &mut out).unwrap();
        assert_eq!(stats.get("fuse.hits") - hits, lookups);
        assert_eq!(stats.get("fuse.misses"), misses);
        for r in 0..16 {
            let at = 100 + r * 8192;
            assert_eq!(out[r * 64..(r + 1) * 64], data[at..at + 64]);
        }
    }
}

#[test]
fn paper_span_larger_than_the_cache_walks_it_chunk_by_chunk() {
    // A 4-chunk span through a 2-chunk cache on the paper path: four
    // single-chunk miss fills, each evicting (and synchronously writing
    // back) the chunk two behind it, and every byte survives.
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 4 * CHUNK);
    let data: Vec<u8> = (0..(4 * CHUNK) as usize - 200)
        .map(|i| (i % 241) as u8)
        .collect();
    let t = m.write(VTime::ZERO, f, 100, &data).unwrap();
    assert_eq!(stats.get("fuse.misses"), 4);
    assert_eq!(stats.get("fuse.evictions"), 2);
    assert_eq!(stats.get("fuse.async_writebacks"), 0);
    assert_eq!(stats.get("store.batched_fetches"), 0);
    assert_eq!(stats.get("store.batched_writes"), 0);
    let mut out = vec![0u8; data.len()];
    m.read(t, f, 100, &mut out).unwrap();
    assert_eq!(out, data);
    assert_eq!(stats.get("fuse.misses"), 8);
}

/// RS(2, 1) world: benefactors on nodes 0 (with the manager), 1 and 2,
/// client mount on node 3, one two-chunk file — one parity group, member
/// `i` on benefactor `i`, parity on benefactor 2.
fn rs_world(cfg: FuseConfig) -> (Mount, StatsRegistry, FileId) {
    let stats = StatsRegistry::new();
    let net = Network::new(4, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..3 {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(256), CHUNK));
    }
    let m = Mount::new(store, 3, cfg, &stats);
    let spec = StripeSpec::all().with_parity(2, 1);
    let (_, f) = m
        .create(
            VTime::ZERO,
            "/v",
            2 * CHUNK,
            spec,
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    (m, stats, f)
}

/// The store's partial-failure rule seen from a mount: a flush that fails
/// leaves its pages dirty, the retry lands them, and the group is never
/// left behind the data a failed attempt did land — so one loss ≤ m later
/// the flushed bytes still read back.
#[test]
fn a_failed_flush_leaves_no_parity_group_behind_its_data() {
    let cfg = FuseConfig {
        cache_bytes: 4 * CHUNK,
        ..pipelined(small_cache())
    };
    let (m, stats, f) = rs_world(cfg);
    let data: Vec<u8> = (0..2 * CHUNK as usize).map(|i| (i % 239) as u8).collect();
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();

    // Member 1's home is down: the flush lands member 0, then fails.
    let down = chunkstore::BenefactorId(1);
    m.store().set_benefactor_alive(down, false);
    assert_eq!(m.flush_file(t, f), Err(StoreError::BenefactorDown(down)));
    assert_eq!(m.dirty_chunk_count(), 2, "a failed flush cleans nothing");
    m.store().set_benefactor_alive(down, true);
    let t = m.flush_file(t + VTime::from_millis(10), f).unwrap();
    assert_eq!(m.dirty_chunk_count(), 0);

    // Lose member 0's home; a cold mount reads through the degraded store.
    m.store()
        .set_benefactor_alive(chunkstore::BenefactorId(0), false);
    let cold = Mount::new(m.store().clone(), 3, cfg, &stats);
    let mut out = vec![0u8; data.len()];
    cold.read(t, f, 0, &mut out).unwrap();
    assert!(out == data, "the flushed bytes read back");
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
}

/// When the flush of the test below ended on the per-chunk `write_runs`
/// path of the commit before the store's two paths were folded.
const PAPER_RS_FLUSH_END_NS: u64 = 7_984_544;

/// The paper path is the window of one, nothing else: over an RS file it
/// issues only one-entry store calls, never consults a location cache, and
/// a chunk's parity leaves with its data — the flush ends where the
/// per-chunk `write_runs` of the commit before the store's paths were
/// folded ended it (constants recorded there, unedited since).
#[test]
fn paper_mount_issues_one_entry_calls_and_ships_parity_with_the_data() {
    let (m, stats, f) = rs_world(small_cache());
    let data: Vec<u8> = (0..2 * CHUNK as usize).map(|i| (i % 233) as u8).collect();
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let page = vec![0xA5u8; 4096];
    let t = m.write(t, f, CHUNK + 8192, &page).unwrap();
    let t = m.flush_file(t, f).unwrap();
    assert_eq!(t.as_nanos(), PAPER_RS_FLUSH_END_NS);
    let mut out = vec![0u8; 2 * CHUNK as usize];
    m.read(t, f, 0, &mut out).unwrap();
    assert!(out[..CHUNK as usize + 8192] == data[..CHUNK as usize + 8192]);
    assert!(out[CHUNK as usize + 8192..][..4096] == page[..]);

    assert_eq!(stats.get("store.parity_encodes"), 2, "one ship per call");
    for name in [
        "store.batched_fetches",
        "store.batched_writes",
        "store.loc_cache_hits",
        "store.loc_cache_misses",
        "store.loc_cache_invalidations",
    ] {
        assert_eq!(stats.get(name), 0, "{name}");
    }
}

mod oracle {
    use super::*;
    use proptest::prelude::*;

    const FILE: u64 = 6 * CHUNK;

    #[derive(Clone, Debug)]
    enum Op {
        Read {
            at: u64,
            len: u64,
        },
        Strided {
            at: u64,
            run: u64,
            stride: u64,
            count: u64,
        },
        Write {
            at: u64,
            len: u64,
            tag: u8,
        },
        Flush,
    }

    /// A non-empty span of up to three chunks inside the file.
    fn span() -> impl Strategy<Value = (u64, u64)> {
        (0..FILE - 1, 1..3 * CHUNK).prop_map(|(at, len)| (at, len.min(FILE - at)))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            span().prop_map(|(at, len)| Op::Read { at, len }),
            (span(), any::<u8>()).prop_map(|((at, len), tag)| Op::Write { at, len, tag }),
            (0..FILE / 2, 1..600u64, 0..CHUNK, 1..40u64).prop_map(|(at, run, gap, count)| {
                // Clamp the burst inside the file.
                let stride = run + gap;
                let count = count.min((FILE - at - run) / stride + 1);
                Op::Strided {
                    at,
                    run,
                    stride,
                    count,
                }
            }),
            Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random `read`/`read_strided`/`write`/`flush_file` sequences
        /// through a paper mount and a pipelined mount (3-chunk caches, so
        /// windows split and evictions fire) return exactly the bytes of a
        /// flat in-memory oracle — and a cold mount reads the same bytes
        /// back from the store after a final flush.
        #[test]
        fn both_policies_match_a_flat_oracle(ops in proptest::collection::vec(op(), 1..24)) {
            let base = FuseConfig { cache_bytes: 3 * CHUNK, read_ahead_chunks: 2, ..FuseConfig::default() };
            for cfg in [base, pipelined(base)] {
                let (m, stats) = world(cfg);
                let f = mk_file(&m, "/v", FILE);
                let mut flat = vec![0u8; FILE as usize];
                let mut t = VTime::ZERO;
                for op in &ops {
                    match *op {
                        Op::Read { at, len } => {
                            let mut out = vec![0xAAu8; len as usize];
                            t = m.read(t, f, at, &mut out).unwrap();
                            prop_assert_eq!(&out[..], &flat[at as usize..(at + len) as usize]);
                        }
                        Op::Strided { at, run, stride, count } => {
                            let mut out = vec![0xAAu8; (run * count) as usize];
                            t = m.read_strided(t, f, at, run, stride, count, &mut out).unwrap();
                            for r in 0..count {
                                let src = (at + r * stride) as usize;
                                let dst = (r * run) as usize;
                                prop_assert_eq!(
                                    &out[dst..dst + run as usize],
                                    &flat[src..src + run as usize]
                                );
                            }
                        }
                        Op::Write { at, len, tag } => {
                            let data: Vec<u8> = (0..len).map(|i| tag ^ i as u8).collect();
                            t = m.write(t, f, at, &data).unwrap();
                            flat[at as usize..(at + len) as usize].copy_from_slice(&data);
                        }
                        Op::Flush => t = m.flush_file(t, f).unwrap(),
                    }
                }
                t = m.flush_all(t).unwrap();
                prop_assert_eq!(m.dirty_chunk_count(), 0);
                let cold = Mount::new(m.store().clone(), 2, cfg, &stats);
                let mut back = vec![0u8; FILE as usize];
                cold.read(t, f, 0, &mut back).unwrap();
                prop_assert_eq!(back, flat);
            }
        }
    }
}
