//! File-lifetime tests (§III-C: variables persistent beyond the run,
//! reclaimed by the manager once expired).

use chunkstore::{AggregateStore, Benefactor, PlacementPolicy, StoreConfig, StripeSpec};
use devices::{Ssd, INTEL_X25E};
use netsim::{NetConfig, Network};
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

fn store() -> AggregateStore {
    let stats = StatsRegistry::new();
    let net = Network::new(2, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, 64 * CHUNK, CHUNK));
    store
}

#[test]
fn expired_files_are_reclaimed() {
    let store = store();
    let node = 1;
    let (t, keep) = store.create_file(VTime::ZERO, node, "/keep").unwrap();
    store
        .fallocate(
            t,
            node,
            keep,
            CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let (t, ttl) = store.create_file(t, node, "/ttl").unwrap();
    store
        .fallocate(
            t,
            node,
            ttl,
            CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let data = vec![1u8; 4096];
    let t = store.write_pages(t, node, ttl, 0, &[(0, &data)]).unwrap();

    store
        .manager()
        .set_lifetime(ttl, Some(VTime::from_secs(10)))
        .unwrap();

    // Before the deadline: nothing happens.
    assert_eq!(store.manager().expire_files(VTime::from_secs(9)), 0);
    assert!(store.fetch_chunk(t, node, ttl, 0).is_ok());

    // After: the file and its chunks are gone; the other file remains.
    assert_eq!(store.manager().expire_files(VTime::from_secs(10)), 1);
    assert!(store.fetch_chunk(t, node, ttl, 0).is_err());
    assert_eq!(store.manager().lookup("/ttl"), None);
    assert_eq!(store.manager().lookup("/keep"), Some(keep));
    assert_eq!(store.manager().physical_bytes(), 0);
}

#[test]
fn lifetime_can_be_cleared() {
    let store = store();
    let node = 1;
    let (t, f) = store.create_file(VTime::ZERO, node, "/f").unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    store
        .manager()
        .set_lifetime(f, Some(VTime::from_secs(1)))
        .unwrap();
    store.manager().set_lifetime(f, None).unwrap();
    assert_eq!(store.manager().expire_files(VTime::from_secs(100)), 0);
    assert_eq!(store.manager().lookup("/f"), Some(f));
}

#[test]
fn expiry_of_linked_checkpoint_respects_refcounts() {
    let store = store();
    let node = 1;
    let (t, var) = store.create_file(VTime::ZERO, node, "/var").unwrap();
    store
        .fallocate(
            t,
            node,
            var,
            CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let data = vec![7u8; 4096];
    let t = store.write_pages(t, node, var, 0, &[(0, &data)]).unwrap();
    let (t2, ck) = store.create_file(t, node, "/ck").unwrap();
    let t = store.link_file(t2, node, ck, var).unwrap();

    // The checkpoint expires; the variable keeps its chunk.
    store
        .manager()
        .set_lifetime(ck, Some(VTime::from_secs(1)))
        .unwrap();
    assert_eq!(store.manager().expire_files(VTime::from_secs(2)), 1);
    assert!(store.fetch_chunk(t, node, var, 0).is_ok());
    assert_eq!(store.manager().physical_bytes(), CHUNK);
}

/// Files that expire in one sweep are deleted in `FileId` order, so the
/// journal's `Free` records (chunk, benefactor, `Benefactor::slot_of`)
/// come out the same on every run — not in the order of a hashed file map.
#[test]
fn files_expiring_together_are_freed_in_file_order() {
    use chunkstore::Record;
    // Each fresh store's file map hashes with different keys, so eight of
    // them stand in for eight processes.
    for _ in 0..8 {
        let stats = StatsRegistry::new();
        let net = Network::new(2, NetConfig::default(), &stats);
        let cfg = StoreConfig {
            ha_standby: true,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        let ssd = Ssd::new("b.ssd", INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(0, ssd, 64 * CHUNK, CHUNK));

        let node = 1;
        let data = vec![3u8; 4096];
        let mut t = VTime::ZERO;
        for i in 0..6 {
            let (t1, f) = store.create_file(t, node, &format!("/ttl{i}")).unwrap();
            store
                .fallocate(
                    t1,
                    node,
                    f,
                    CHUNK,
                    StripeSpec::all(),
                    PlacementPolicy::RoundRobin,
                )
                .unwrap();
            t = store.write_pages(t1, node, f, 0, &[(0, &data)]).unwrap();
            store
                .manager()
                .set_lifetime(f, Some(VTime::from_secs(1)))
                .unwrap();
        }
        assert_eq!(store.manager().expire_files(VTime::from_secs(2)), 6);

        let mgr = store.manager();
        let journal = mgr.journal().expect("ha_standby keeps a journal");
        let records: Vec<Record> = (0..journal.lanes())
            .flat_map(|k| journal.lane(k).iter())
            .collect();
        let placed: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                Record::Place {
                    chunk,
                    benefactor,
                    slot,
                } => Some((*chunk, *benefactor, *slot)),
                _ => None,
            })
            .collect();
        let freed: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                Record::Free {
                    chunk,
                    benefactor,
                    slot,
                } => Some((*chunk, *benefactor, *slot)),
                _ => None,
            })
            .collect();
        assert_eq!(placed.len(), 6);
        assert_eq!(freed, placed, "frees follow creation (FileId) order");
    }
}
