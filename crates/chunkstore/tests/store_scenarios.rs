//! Aggregate-store scenario tests: checkpoint-of-checkpoint linking,
//! deletion ordering, COW under space pressure, placement distribution.

use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkPayload, PlacementPolicy, StoreConfig,
    StoreError, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::{NetConfig, Network};
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

fn store_with(benefactors: usize, cap_chunks: u64) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(benefactors + 1, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..benefactors {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, cap_chunks * CHUNK, CHUNK));
    }
    (store, stats)
}

fn client() -> usize {
    // All data-plane calls come from the last node (no benefactor there).
    usize::MAX // replaced per call; see mk_file
}

fn mk_file(store: &AggregateStore, name: &str, chunks: u64, node: usize) -> chunkstore::FileId {
    let (t, f) = store.create_file(VTime::ZERO, node, name).unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            chunks * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    f
}

/// Bulk sequential write, one chunk per store call (clients write through
/// their mount's data path instead).
fn write_span(
    store: &AggregateStore,
    mut t: VTime,
    node: usize,
    file: chunkstore::FileId,
    data: &[u8],
) -> VTime {
    for s in chunkstore::segments(0, data.len() as u64, CHUNK) {
        let run = (s.within as u64, &data[s.pos..s.pos + s.take]);
        t = store.write_pages(t, node, file, s.idx, &[run]).unwrap();
    }
    t
}

#[test]
fn checkpoint_of_checkpoint_chains_links() {
    let (store, _) = store_with(2, 64);
    let node = 2;
    let var = mk_file(&store, "/var", 2, node);
    let data = vec![3u8; CHUNK as usize];
    let mut t = write_span(&store, VTime::ZERO, node, var, &data);

    let (t1, ck1) = store.create_file(t, node, "/ck1").unwrap();
    t = store.link_file(t1, node, ck1, var).unwrap();
    let (t2, ck2) = store.create_file(t, node, "/ck2").unwrap();
    t = store.link_file(t2, node, ck2, ck1).unwrap();

    // One physical chunk serves all three files.
    assert_eq!(store.manager().physical_bytes(), CHUNK);

    // Deleting the middle link keeps the chain's ends alive.
    store.delete(t, node, ck1).unwrap();
    let (_, p) = store.fetch_chunk(t, node, ck2, 0).unwrap();
    match p {
        ChunkPayload::Data(d) => assert_eq!(d[0], 3),
        _ => panic!("expected data through the surviving link"),
    }
    store.delete(t, node, var).unwrap();
    store.delete(t, node, ck2).unwrap();
    assert_eq!(store.manager().physical_bytes(), 0);
    let _ = client();
}

#[test]
fn cow_fails_cleanly_when_benefactor_full() {
    // One benefactor with exactly 2 chunk slots: a 2-chunk file fills it;
    // a linked checkpoint then makes any write need a COW clone, which
    // has nowhere to go.
    let (store, _) = store_with(1, 2);
    let node = 1;
    let var = mk_file(&store, "/var", 2, node);
    let data = vec![1u8; (2 * CHUNK) as usize];
    let mut t = write_span(&store, VTime::ZERO, node, var, &data);
    let (t1, ck) = store.create_file(t, node, "/ck").unwrap();
    t = store.link_file(t1, node, ck, var).unwrap();

    let page = vec![2u8; 4096];
    let err = store
        .write_pages(t, node, var, 0, &[(0, &page)])
        .unwrap_err();
    assert!(matches!(err, StoreError::OutOfSpace { .. }));
    // The frozen checkpoint is intact.
    let (_, p) = store.fetch_chunk(t, node, ck, 0).unwrap();
    assert!(matches!(p, ChunkPayload::Data(d) if d[0] == 1));
}

#[test]
fn stripe_count_rotates_across_files() {
    let (store, _) = store_with(4, 64);
    let node = 4;
    let mut firsts = Vec::new();
    for i in 0..4 {
        let (t, f) = store
            .create_file(VTime::ZERO, node, &format!("/f{i}"))
            .unwrap();
        store
            .fallocate(
                t,
                node,
                f,
                CHUNK,
                StripeSpec::count(1),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        firsts.push(store.manager().file(f).unwrap().stripe[0]);
    }
    // Four Count(1) files land on four different benefactors.
    firsts.sort();
    firsts.dedup();
    assert_eq!(firsts.len(), 4, "cursor must rotate: {firsts:?}");
}

#[test]
fn random_placement_spreads_chunks() {
    let (store, _) = store_with(4, 256);
    let node = 4;
    let (t, f) = store.create_file(VTime::ZERO, node, "/rand").unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            64 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RandomPermutation { seed: 123 },
        )
        .unwrap();
    let mut per_bene = [0u32; 4];
    {
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        for i in 0..64 {
            per_bene[meta.home_of_slot(i).0] += 1;
        }
    }
    // Every benefactor got a reasonable share of 64 chunks.
    assert!(per_bene.iter().all(|&c| c >= 4), "skewed: {per_bene:?}");
}

#[test]
fn deleting_variable_before_checkpoint_is_safe_any_order() {
    for delete_var_first in [true, false] {
        let (store, _) = store_with(2, 64);
        let node = 2;
        let var = mk_file(&store, "/var", 3, node);
        let data = vec![7u8; (3 * CHUNK) as usize];
        let mut t = write_span(&store, VTime::ZERO, node, var, &data);
        let (t1, ck) = store.create_file(t, node, "/ck").unwrap();
        t = store.link_file(t1, node, ck, var).unwrap();

        if delete_var_first {
            store.delete(t, node, var).unwrap();
            let (_, p) = store.fetch_chunk(t, node, ck, 0).unwrap();
            assert!(matches!(p, ChunkPayload::Data(_)));
            store.delete(t, node, ck).unwrap();
        } else {
            store.delete(t, node, ck).unwrap();
            let (_, p) = store.fetch_chunk(t, node, var, 0).unwrap();
            assert!(matches!(p, ChunkPayload::Data(_)));
            store.delete(t, node, var).unwrap();
        }
        assert_eq!(store.manager().physical_bytes(), 0);
    }
}

#[test]
fn reads_and_writes_interleave_across_many_files() {
    let (store, _) = store_with(3, 64);
    let node = 3;
    let files: Vec<_> = (0..5)
        .map(|i| mk_file(&store, &format!("/f{i}"), 4, node))
        .collect();
    let mut t = VTime::ZERO;
    for round in 0..4u8 {
        for (i, &f) in files.iter().enumerate() {
            let payload = vec![round * 10 + i as u8; 4096];
            t = store
                .write_pages(t, node, f, round as usize, &[(0, &payload)])
                .unwrap();
        }
    }
    for (i, &f) in files.iter().enumerate() {
        for round in 0..4u8 {
            let (t2, p) = store.fetch_chunk(t, node, f, round as usize).unwrap();
            t = t2;
            match p {
                ChunkPayload::Data(d) => assert_eq!(d[0], round * 10 + i as u8),
                _ => panic!("expected data"),
            }
        }
    }
}

#[test]
fn killing_and_reviving_a_benefactor() {
    let (store, _) = store_with(2, 64);
    let node = 2;
    let f = mk_file(&store, "/f", 2, node);
    let data = vec![9u8; (2 * CHUNK) as usize];
    let t = write_span(&store, VTime::ZERO, node, f, &data);

    store.set_benefactor_alive(BenefactorId(0), false);
    // One of the two chunks lives on the dead benefactor.
    let r0 = store.fetch_chunk(t, node, f, 0);
    let r1 = store.fetch_chunk(t, node, f, 1);
    assert!(r0.is_err() || r1.is_err());
    // New allocations avoid the dead benefactor.
    let (t2, g) = store.create_file(t, node, "/g").unwrap();
    store
        .fallocate(
            t2,
            node,
            g,
            CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    assert_eq!(
        store.manager().file(g).unwrap().stripe,
        vec![BenefactorId(1)]
    );

    store.set_benefactor_alive(BenefactorId(0), true);
    assert!(store.fetch_chunk(t, node, f, 0).is_ok());
    assert!(store.fetch_chunk(t, node, f, 1).is_ok());
}

#[test]
fn zero_length_file_roundtrip() {
    let (store, _) = store_with(1, 4);
    let node = 1;
    let (t, f) = store.create_file(VTime::ZERO, node, "/empty").unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            0,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    assert_eq!(store.file_size(f).unwrap(), 0);
    assert_eq!(store.chunk_count(f).unwrap(), 0);
    let err = store.fetch_chunk(t, node, f, 0).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    store.delete(t, node, f).unwrap();
}
