//! Mount-level integrity semantics (DESIGN.md §11): a chunk whose every
//! copy fails CRC verification surfaces as a read *error* — never as
//! silently wrong bytes and never as a poisoned cache entry — while a
//! single corrupt replica fails over transparently. Dirty state is
//! untouched by a failed read, so writers can retry after repair.

use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkId, FileId, PlacementPolicy, Slot, StoreConfig,
    StoreError, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use fusemm::{FuseConfig, Mount};
use netsim::Network;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

/// A verifying store with `n` benefactors (nodes `0..n`), mount on node `n`.
fn world_verify(n: usize) -> (Mount, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(n + 1, &stats);
    let cfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, net, &stats);
    for node in 0..n {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, 512 * CHUNK, CHUNK));
    }
    (Mount::new(store, n, FuseConfig::default(), &stats), stats)
}

fn mk_file(m: &Mount, chunks: u64, k: usize) -> FileId {
    m.create(
        VTime::ZERO,
        "/v",
        chunks * CHUNK,
        StripeSpec::all().with_replicas(k),
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

fn chunk_of(store: &AggregateStore, f: FileId, idx: usize) -> ChunkId {
    match store.manager().file(f).unwrap().slots[idx] {
        Slot::Chunk(c) => c,
        _ => panic!("slot {idx} not materialized"),
    }
}

/// Flip one byte of a stored copy. `corrupt_chunk` XORs, so applying it
/// twice restores the original — the tests use that to model a repair.
fn flip(store: &AggregateStore, b: BenefactorId, c: ChunkId, off: u64) {
    assert!(store.manager().benefactor_mut(b).corrupt_chunk(c, off));
}

#[test]
fn corrupt_sole_copy_is_a_mount_read_error_and_retry_after_repair_works() {
    let (m, stats) = world_verify(1);
    let f = mk_file(&m, 2, 1);
    let t = fill(&m, f, 2);
    let c = chunk_of(m.store(), f, 1);
    flip(m.store(), BenefactorId(0), c, 33);

    // A cold mount over the same store: the read must come from disk.
    let m2 = Mount::new(m.store().clone(), 1, FuseConfig::default(), &stats);
    let mut buf = vec![0u8; 64];
    let err = m2.read(t, f, CHUNK + 16, &mut buf).unwrap_err();
    assert!(
        matches!(err, StoreError::ChunkCorrupt { chunk, .. } if chunk == c),
        "got {err}"
    );
    assert!(buf.iter().all(|&b| b == 0), "no unverified bytes leaked");
    // The intact chunk is still readable — the error is per-chunk.
    let (_, _) = {
        let mut ok = vec![0u8; 64];
        (m2.read(t, f, 16, &mut ok).unwrap(), ok[0])
    };

    // "Repair" the copy (the XOR is an involution), then retry: the
    // failed fetch must not have poisoned the cache with bad bytes.
    flip(m.store(), BenefactorId(0), c, 33);
    let mut buf = vec![0u8; 64];
    m2.read(t, f, CHUNK + 16, &mut buf).unwrap();
    for (i, &b) in buf.iter().enumerate() {
        assert_eq!(b, (((CHUNK + 16) as usize + i) % 251) as u8);
    }
}

#[test]
fn corrupt_replica_fails_over_transparently_at_the_mount() {
    let (m, stats) = world_verify(3);
    let f = mk_file(&m, 2, 2);
    let t = fill(&m, f, 2);
    let c = chunk_of(m.store(), f, 0);
    let primary = m.store().manager().chunk_homes(c).unwrap()[0];
    flip(m.store(), primary, c, 7);

    let m2 = Mount::new(m.store().clone(), 3, FuseConfig::default(), &stats);
    let mut buf = vec![0u8; 128];
    m2.read(t, f, 0, &mut buf).unwrap();
    for (i, &b) in buf.iter().enumerate() {
        assert_eq!(b, (i % 251) as u8, "failover served the intact copy");
    }
    assert_eq!(stats.get("store.crc_mismatches"), 1);
    assert_eq!(stats.get("store.degraded_reads"), 1);
}

#[test]
fn failed_read_leaves_dirty_state_intact_for_retry() {
    let (m, stats) = world_verify(1);
    let f = mk_file(&m, 2, 1);
    let t = fill(&m, f, 2);
    let c1 = chunk_of(m.store(), f, 1);

    let m2 = Mount::new(m.store().clone(), 1, FuseConfig::default(), &stats);
    // Dirty some pages of chunk 0 on the cold mount.
    let t = m2.write(t, f, 4096, &[0xAB; 4096]).unwrap();
    assert_eq!(m2.dirty_chunks_of(f), vec![0]);

    // Now a read of chunk 1 fails verification mid-operation.
    flip(m.store(), BenefactorId(0), c1, 0);
    let mut buf = vec![0u8; 32];
    let err = m2.read(t, f, CHUNK, &mut buf).unwrap_err();
    assert!(matches!(err, StoreError::ChunkCorrupt { .. }));

    // The failure touched neither the dirty bits nor the cached data:
    // the writer's pages are still queued and flush cleanly.
    assert_eq!(m2.dirty_chunks_of(f), vec![0]);
    let t = m2.flush_file(t, f).unwrap();
    assert!(m2.dirty_chunks_of(f).is_empty());

    // And once the copy is repaired the same read succeeds, seeing both
    // the original fill and the new write where they belong.
    flip(m.store(), BenefactorId(0), c1, 0);
    let mut buf = vec![0u8; 32];
    m2.read(t, f, CHUNK, &mut buf).unwrap();
    for (i, &b) in buf.iter().enumerate() {
        assert_eq!(b, ((CHUNK as usize + i) % 251) as u8);
    }
}
