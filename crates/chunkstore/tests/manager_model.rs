//! Model-based property testing of the manager: under arbitrary
//! create/write/link/delete sequences, the space books must stay
//! consistent and chunk reference counting must never leak or
//! double-free.

use chunkstore::{AggregateStore, Benefactor, FileId, PlacementPolicy, StoreConfig, StripeSpec};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use proptest::prelude::*;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const BENEFACTORS: usize = 3;
const CAP_CHUNKS: u64 = 48;

#[derive(Clone, Debug)]
enum Action {
    Create { size_chunks: u64, replicas: usize },
    WritePage { file_slot: usize, chunk_idx: usize },
    Link { dst_slot: usize, src_slot: usize },
    Delete { file_slot: usize },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (1u64..6, 1usize..3).prop_map(|(size_chunks, replicas)| Action::Create {
            size_chunks,
            replicas
        }),
        4 => (0usize..8, 0usize..6).prop_map(|(file_slot, chunk_idx)| Action::WritePage {
            file_slot,
            chunk_idx
        }),
        2 => (0usize..8, 0usize..8).prop_map(|(dst_slot, src_slot)| Action::Link {
            dst_slot,
            src_slot
        }),
        2 => (0usize..8).prop_map(|file_slot| Action::Delete { file_slot }),
    ]
}

fn store() -> AggregateStore {
    let stats = StatsRegistry::new();
    let net = Network::new(BENEFACTORS + 1, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..BENEFACTORS {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, CAP_CHUNKS * CHUNK, CHUNK));
    }
    store
}

/// Invariants that must hold after every action.
fn check_invariants(store: &AggregateStore, live: &[FileId]) {
    let mgr = store.manager();
    // Every benefactor's books stay within capacity and non-negative.
    let (total, free) = mgr.space();
    assert!(free <= total);
    // Copies held by benefactors match the metadata home lists exactly
    // (a copy on disk with no home entry — or vice versa — is a leak),
    // and `physical_bytes` counts each distinct chunk once.
    let stored: u64 = (0..mgr.benefactor_count())
        .map(|i| mgr.benefactor(chunkstore::BenefactorId(i)).chunk_count() as u64)
        .sum();
    let chunks = mgr.chunk_ids_sorted();
    let homed: u64 = chunks
        .iter()
        .map(|&c| mgr.chunk_homes(c).unwrap().len() as u64)
        .sum();
    assert_eq!(stored, homed, "benefactor copies match metadata homes");
    assert_eq!(mgr.physical_bytes(), chunks.len() as u64 * CHUNK);
    // Every live file's materialized chunks resolve to a live benefactor
    // entry with a positive refcount.
    for &f in live {
        let meta = mgr.file(f).expect("live file exists");
        for slot in &meta.slots {
            if let chunkstore::Slot::Chunk(c) = slot {
                assert!(mgr.chunk_refcount(*c) >= 1, "live chunk without refs");
                // *Every* replica home must hold the bytes, not just the
                // primary — a leaked or dangling replica is corruption.
                let homes = mgr.chunk_homes(*c).expect("chunk has homes");
                assert!(!homes.is_empty());
                for home in homes {
                    assert!(
                        mgr.benefactor(*home).has_chunk(*c),
                        "metadata points at data on every replica"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn space_and_refcounts_never_corrupt(actions in proptest::collection::vec(action_strategy(), 1..60)) {
        let store = store();
        let node = BENEFACTORS;
        let mut files: Vec<FileId> = Vec::new();
        let mut t = VTime::ZERO;
        let mut name = 0u64;

        for action in actions {
            match action {
                Action::Create { size_chunks, replicas } => {
                    name += 1;
                    if let Ok((t2, f)) = store.create_file(t, node, &format!("/f{name}")) {
                        t = t2;
                        // Mixing k=1 and k=2 files exercises replica
                        // reservation release alongside plain refcounts.
                        match store.fallocate(
                            t, node, f, size_chunks * CHUNK,
                            StripeSpec::all().with_replicas(replicas),
                            PlacementPolicy::RoundRobin,
                        ) {
                            Ok(t2) => { t = t2; files.push(f); }
                            Err(_) => { t = store.delete(t, node, f).unwrap(); }
                        }
                    }
                }
                Action::WritePage { file_slot, chunk_idx } => {
                    if files.is_empty() { continue; }
                    let f = files[file_slot % files.len()];
                    let n_chunks = store.chunk_count(f).unwrap();
                    if n_chunks == 0 { continue; }
                    let idx = chunk_idx % n_chunks;
                    let page = vec![(chunk_idx % 251) as u8; 4096];
                    // OutOfSpace on COW is a legal refusal, not corruption.
                    match store.write_pages(t, node, f, idx, &[(0, &page)]) {
                        Ok(t2) => t = t2,
                        Err(chunkstore::StoreError::OutOfSpace { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Action::Link { dst_slot, src_slot } => {
                    if files.len() < 2 { continue; }
                    let dst = files[dst_slot % files.len()];
                    let src = files[src_slot % files.len()];
                    if dst == src { continue; }
                    t = store.link_file(t, node, dst, src).unwrap();
                }
                Action::Delete { file_slot } => {
                    if files.is_empty() { continue; }
                    let f = files.remove(file_slot % files.len());
                    t = store.delete(t, node, f).unwrap();
                }
            }
            check_invariants(&store, &files);
        }

        // Tear everything down: the store must come back empty.
        for f in files.drain(..) {
            t = store.delete(t, node, f).unwrap();
        }
        assert_eq!(store.manager().physical_bytes(), 0);
        let (total, free) = store.manager().space();
        assert_eq!(total, free, "all reservations released");
    }
}
