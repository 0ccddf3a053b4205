//! Property-based model of the replicated store.
//!
//! A reference model (per-slot "last written value") is driven alongside
//! the real store through random sequences of writes, benefactor crashes,
//! recoveries and repair sweeps. Invariants:
//!
//! * placement — no two replicas of a chunk ever share a benefactor, and
//!   every listed home is a registered benefactor;
//! * durability — after all benefactors are revived and one repair sweep
//!   runs, every chunk is back at exactly its target replica degree;
//! * consistency — a read that succeeds (possibly via failover) always
//!   returns the *latest* written bytes, never a torn or stale version.

use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkPayload, PlacementPolicy, StoreConfig,
    StoreError, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use proptest::prelude::*;
use simcore::{time::bytes::mib, StatsRegistry, VTime};
use std::collections::HashSet;

const CHUNK: u64 = 256 * 1024;
const SLOTS: usize = 4;

fn build_store(benefactors: usize) -> AggregateStore {
    let stats = StatsRegistry::new();
    let net = Network::new(benefactors + 1, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..benefactors {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(64), CHUNK));
    }
    store
}

/// Check the placement invariant over every materialized chunk of `f`.
fn assert_placement(store: &AggregateStore, f: chunkstore::FileId, benefactors: usize) {
    let mgr = store.manager();
    let meta = mgr.file(f).unwrap();
    for slot in &meta.slots {
        if let chunkstore::Slot::Chunk(c) = slot {
            let homes = mgr.chunk_homes(*c).unwrap();
            let distinct: HashSet<BenefactorId> = homes.iter().copied().collect();
            assert_eq!(distinct.len(), homes.len(), "replicas share a benefactor");
            assert!(homes.iter().all(|h| h.0 < benefactors), "unknown home");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replicated_store_matches_model(
        nbene in 2usize..5,
        kraw in 1usize..4,
        ops in proptest::collection::vec((0u8..4, 0usize..64, 1u8..255), 1..40),
    ) {
        let k = kraw.min(nbene);
        let store = build_store(nbene);
        let client = nbene; // the extra node
        let (t0, f) = store.create_file(VTime::ZERO, client, "/v").unwrap();
        store
            .fallocate(
                t0,
                client,
                f,
                SLOTS as u64 * CHUNK,
                StripeSpec::all().with_replicas(k),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();

        let mut model: Vec<Option<u8>> = vec![None; SLOTS];
        let mut alive = vec![true; nbene];
        let mut t = t0;

        for (op, sel, val) in ops {
            match op {
                // Write a full page of `val` into a slot.
                0 => {
                    let idx = sel % SLOTS;
                    let page = vec![val; 4096];
                    match store.write_pages(t, client, f, idx, &[(0, &page)]) {
                        Ok(t2) => {
                            t = t2;
                            model[idx] = Some(val);
                        }
                        Err(StoreError::BenefactorDown(_)) => {
                            // Legal only when every copy is dead; the model
                            // keeps its old value and the store must too.
                        }
                        Err(e) => panic!("unexpected write error: {e:?}"),
                    }
                }
                // Crash a benefactor (never the last one standing).
                1 => {
                    let b = sel % nbene;
                    if alive.iter().filter(|&&a| a).count() > 1 && alive[b] {
                        store.set_benefactor_alive(BenefactorId(b), false);
                        alive[b] = false;
                    }
                }
                // Revive a benefactor.
                2 => {
                    let b = sel % nbene;
                    if !alive[b] {
                        store.set_benefactor_alive(BenefactorId(b), true);
                        alive[b] = true;
                    }
                }
                // Repair sweep.
                _ => {
                    let (t2, _) = store.repair_under_replicated(t);
                    t = t2;
                }
            }
            assert_placement(&store, f, nbene);

            // Consistency: any read that succeeds returns the latest write.
            for (idx, expect) in model.iter().enumerate() {
                match store.fetch_chunk(t, client, f, idx) {
                    Ok((t2, payload)) => {
                        t = t2;
                        match (payload, expect) {
                            (ChunkPayload::Zeros, None) => {}
                            (ChunkPayload::Data(d), Some(v)) => {
                                prop_assert_eq!(d[0], *v, "stale read at slot {}", idx);
                                prop_assert_eq!(d[4095], *v, "torn read at slot {}", idx);
                            }
                            (ChunkPayload::Data(_), None) => {
                                panic!("read data from a never-written slot")
                            }
                            (ChunkPayload::Zeros, Some(_)) => {
                                panic!("written slot read back as zeros")
                            }
                        }
                    }
                    Err(StoreError::BenefactorDown(_)) => {
                        // Every copy is on a dead benefactor — acceptable,
                        // the value is not lost (metadata still knows it).
                    }
                    Err(e) => panic!("unexpected read error: {e:?}"),
                }
            }
        }

        // Durability: revive everyone, run one repair sweep; every chunk
        // must be back at exactly its target degree with the right bytes.
        for (b, live) in alive.iter().enumerate().take(nbene) {
            if !live {
                store.set_benefactor_alive(BenefactorId(b), true);
            }
        }
        let (t2, _) = store.repair_under_replicated(t);
        t = t2;
        prop_assert!(store.manager().under_replicated().is_empty());
        {
            let mgr = store.manager();
            let meta = mgr.file(f).unwrap();
            for slot in &meta.slots {
                if let chunkstore::Slot::Chunk(c) = slot {
                    prop_assert_eq!(
                        mgr.chunk_homes(*c).unwrap().len(),
                        mgr.chunk_target(*c).unwrap(),
                        "replica degree not restored after full recovery"
                    );
                }
            }
        }
        for (idx, expect) in model.iter().enumerate() {
            let (t2, payload) = store.fetch_chunk(t, client, f, idx).unwrap();
            t = t2;
            match (payload, expect) {
                (ChunkPayload::Zeros, None) => {}
                (ChunkPayload::Data(d), Some(v)) => prop_assert_eq!(d[0], *v),
                _ => panic!("model/store divergence after recovery at slot {idx}"),
            }
        }
    }
}
