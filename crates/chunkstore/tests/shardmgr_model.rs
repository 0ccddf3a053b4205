//! Property tests for the sharded placement manager (DESIGN.md §12):
//!
//! * **Ring growth is minimal** — adding one shard to an N-shard ring
//!   moves keys *only* to the new shard, and in aggregate no more than
//!   roughly its fair `1/(N+1)` share of a random key population.
//! * **A cold restart is airtight** — cold-rebooting a crashed shard rank
//!   always strictly bumps the placement epoch, and no stale
//!   `LocationCache` hit survives it: the next batched fetch re-resolves
//!   through the shards.

use chunkstore::shardmgr::DEFAULT_VNODES;
use chunkstore::{
    AggregateStore, BatchWrite, Benefactor, ChunkId, ChunkPayload, FileId, HashRing, LocationCache,
    PlacementPolicy, StoreConfig, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use proptest::prelude::*;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const BENEFACTORS: usize = 3;

/// Benefactors on nodes `1..=BENEFACTORS`, `shards` manager ranks
/// round-robin on those nodes, client driving from the last node.
fn sharded_store(shards: usize, seed: u64) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(BENEFACTORS + 2, &stats);
    let cfg = StoreConfig {
        manager_shards: shards,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, net, &stats);
    for node in 1..=BENEFACTORS {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, 64 * CHUNK, CHUNK));
    }
    let nodes: Vec<usize> = (0..shards).map(|k| (k % BENEFACTORS) + 1).collect();
    store.install_shards(&nodes, seed);
    (store, stats)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn growth_remaps_at_most_a_fair_share_and_only_to_the_new_shard(
        seed in any::<u64>(),
        shards in 1usize..8,
        keys in proptest::collection::vec(any::<u64>(), 256..512),
    ) {
        let old = HashRing::new(shards, DEFAULT_VNODES, seed);
        let new = HashRing::new(shards + 1, DEFAULT_VNODES, seed);
        let mut moved = 0usize;
        for &k in &keys {
            let a = old.owner_of_chunk(ChunkId(k));
            let b = new.owner_of_chunk(ChunkId(k));
            if a != b {
                prop_assert_eq!(b, shards, "keys only ever move to the new shard");
                moved += 1;
            }
        }
        // Expected share is 1/(N+1); with `DEFAULT_VNODES` points per shard the
        // realized share stays within a few percent of that, so 2.5x
        // slack (plus a small absolute allowance for tiny populations)
        // is many standard deviations of headroom.
        let bound = keys.len() * 5 / (2 * (shards + 1)) + 8;
        prop_assert!(
            moved <= bound,
            "remapped {} of {} keys growing {}→{} shards (bound {})",
            moved, keys.len(), shards, shards + 1, bound
        );
    }

    #[test]
    fn cold_restart_always_bumps_the_epoch_and_kills_stale_hits(
        seed in any::<u64>(),
        shards in 1usize..5,
        slots in 2usize..10,
        victim_raw in any::<usize>(),
    ) {
        let (store, stats) = sharded_store(shards, seed);
        let client = BENEFACTORS + 1;
        let (t, f) = store.create_file(VTime::ZERO, client, "/p").unwrap();
        let t = store
            .fallocate(
                t,
                client,
                f,
                slots as u64 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let page = vec![1u8; 4096];
        let upd = [(0u64, page.as_slice())];
        let batch: Vec<BatchWrite> = (0..slots)
            .map(|idx| BatchWrite { file: f, idx, updates: &upd })
            .collect();
        let ends = store.write_pages_batch(t, client, &batch).unwrap();
        let t = ends.iter().copied().max().unwrap();
        let cache = LocationCache::new(&stats);
        let targets: Vec<(FileId, usize)> = (0..slots).map(|i| (f, i)).collect();
        let r = store.fetch_chunks(t, client, &targets, Some(&cache)).unwrap();
        let t = r.iter().map(|&(e, _)| e).max().unwrap();
        // Warmed up: the same batch is all cache hits.
        let hits0 = stats.get("store.loc_cache_hits");
        let rpcs0 = stats.get("store.mgr_rpcs");
        let r = store.fetch_chunks(t, client, &targets, Some(&cache)).unwrap();
        let t = r.iter().map(|&(e, _)| e).max().unwrap();
        prop_assert_eq!(stats.get("store.loc_cache_hits"), hits0 + slots as u64);
        prop_assert_eq!(stats.get("store.mgr_rpcs"), rpcs0);
        // Crash + cold-reboot an arbitrary shard's rank: the placement
        // epoch must strictly advance, and not one stale cache hit may
        // survive.
        let victim = victim_raw % shards;
        let epoch0 = store.manager().placement_epoch();
        store.set_manager_alive(victim, false, t);
        store.set_manager_alive(victim, true, t);
        prop_assert!(
            store.manager().placement_epoch() > epoch0,
            "a cold restart must bump the placement epoch"
        );
        let hits1 = stats.get("store.loc_cache_hits");
        let rpcs1 = stats.get("store.mgr_rpcs");
        let r = store.fetch_chunks(t, client, &targets, Some(&cache)).unwrap();
        prop_assert!(r.iter().all(|(_, p)| matches!(p, ChunkPayload::Data(_))));
        prop_assert_eq!(
            stats.get("store.loc_cache_hits"),
            hits1,
            "no stale LocationCache hit survives a cold restart"
        );
        prop_assert!(
            stats.get("store.mgr_rpcs") > rpcs1,
            "placement is re-resolved from the shards"
        );
    }
}
