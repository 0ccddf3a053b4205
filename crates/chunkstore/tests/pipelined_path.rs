//! The batched data path must be an *optimization*, never a semantic
//! change: for any reachable store state — including one shaped by a
//! fault plan — `fetch_chunks` returns the same bytes and counts the
//! same failovers as the serial `fetch_chunk` loop it replaces. A second
//! suite pins the location cache's epoch coherence across the full
//! crash → repair → recovery cycle.

use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkPayload, LocationCache, PlacementPolicy,
    StoreConfig, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use faults::FaultPlanBuilder;
use netsim::Network;
use proptest::prelude::*;
use simcore::{time::bytes::mib, StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const SLOTS: usize = 6;

fn build_store(benefactors: usize) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(benefactors + 1, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..benefactors {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(64), CHUNK));
    }
    (store, stats)
}

/// Set up one store: a k-replicated file with `writes[i]` in slot i
/// (None = never written) and an optional benefactor crash scheduled
/// strictly before the fetch epoch, delivered through a fault plan.
fn prepare(
    nbene: usize,
    k: usize,
    writes: &[Option<u8>],
    victim: Option<usize>,
) -> (AggregateStore, StatsRegistry, chunkstore::FileId, VTime) {
    let (store, stats) = build_store(nbene);
    let client = nbene;
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
    let mut t = t0;
    for (idx, w) in writes.iter().enumerate() {
        if let Some(v) = w {
            let page = vec![*v; 4096];
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
    }
    if let Some(b) = victim {
        // All events land at-or-before the fetch epoch so the serial loop
        // and the single batch observe the same liveness set.
        store.attach_faults(FaultPlanBuilder::new(99).crash(t, b).build());
    }
    (store, stats, f, t + VTime::from_micros(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serial loop vs one batch over identical twin stores: byte-identical
    /// payloads, identical failover counts.
    #[test]
    fn batched_fetch_matches_serial(
        nbene in 2usize..5,
        raw_writes in proptest::collection::vec(0u8..255, SLOTS..SLOTS + 1),
        crash in 0usize..5,
    ) {
        // k=2 and at most one crash: every chunk keeps a live copy, so
        // both paths succeed (possibly via failover) on every slot.
        // 0 encodes "no write" / "no crash" in the shrink-friendly way.
        let writes: Vec<Option<u8>> =
            raw_writes.iter().map(|&v| if v == 0 { None } else { Some(v) }).collect();
        let victim = if crash == 0 { None } else { Some((crash - 1) % nbene) };
        let (serial_store, serial_stats, f_s, t) = prepare(nbene, 2, &writes, victim);
        let (batch_store, batch_stats, f_b, t_b) = prepare(nbene, 2, &writes, victim);
        prop_assert_eq!(t, t_b);

        let client = nbene;
        let mut serial_payloads = Vec::new();
        let mut ts = t;
        for idx in 0..SLOTS {
            let (t2, p) = serial_store.fetch_chunk(ts, client, f_s, idx).unwrap();
            ts = t2;
            serial_payloads.push(p);
        }

        let targets: Vec<_> = (0..SLOTS).map(|idx| (f_b, idx)).collect();
        let batched = batch_store.fetch_chunks(t, client, &targets, None).unwrap();

        for (idx, ((_, bp), sp)) in batched.iter().zip(&serial_payloads).enumerate() {
            prop_assert_eq!(bp, sp, "payload divergence at slot {}", idx);
            match (bp, &writes[idx]) {
                (ChunkPayload::Zeros, None) => {}
                (ChunkPayload::Data(d), Some(v)) => prop_assert_eq!(d[0], *v),
                _ => panic!("payload does not match what was written at slot {idx}"),
            }
        }
        prop_assert_eq!(
            serial_stats.get("store.failovers"),
            batch_stats.get("store.failovers"),
            "failover accounting diverged"
        );
        prop_assert_eq!(
            serial_stats.get("store.degraded_reads"),
            batch_stats.get("store.degraded_reads"),
            "degraded-read accounting diverged"
        );
    }
}

/// A degraded slot must cost the batch exactly what it costs the serial
/// path: `fetch_chunks` routes fallback targets through the same
/// verified retry loop as `fetch_chunk` (one manager RPC, then
/// failover/backoff from the RPC's end), so the virtual completion
/// times — not just the payloads — are identical.
#[test]
fn batched_degraded_fetch_costs_the_same_virtual_time_as_serial() {
    let writes: Vec<Option<u8>> = vec![Some(42), None, None, None, None, None];
    for nbene in 2..5 {
        // Crash slot 0's primary home so the single target is degraded.
        let (serial_store, serial_stats, f_s, t) = prepare(nbene, 2, &writes, Some(0));
        let (batch_store, batch_stats, f_b, _) = prepare(nbene, 2, &writes, Some(0));
        let client = nbene;

        let (t_serial, p_serial) = serial_store.fetch_chunk(t, client, f_s, 0).unwrap();
        let batched = batch_store
            .fetch_chunks(t, client, &[(f_b, 0)], None)
            .unwrap();
        let (t_batch, p_batch) = &batched[0];

        assert_eq!(
            t_serial, *t_batch,
            "degraded fetch time diverged at nbene={nbene}"
        );
        assert_eq!(&p_serial, p_batch);
        assert_eq!(serial_stats.get("store.degraded_reads"), 1);
        assert_eq!(batch_stats.get("store.degraded_reads"), 1);
        assert_eq!(
            serial_stats.get("store.failovers"),
            batch_stats.get("store.failovers")
        );
    }
}

/// Epoch coherence: the cache serves repeat fetches without manager
/// traffic, is dropped wholesale the moment placement can have changed
/// (crash, repair, recovery), and never yields stale homes — reads stay
/// correct through the whole cycle.
#[test]
fn location_cache_invalidates_across_crash_repair_recovery() {
    let nbene = 4;
    let writes: Vec<Option<u8>> = (0..SLOTS).map(|i| Some(i as u8 + 1)).collect();
    let (store, stats, f, t) = prepare(nbene, 2, &writes, None);
    let client = nbene;
    let cache = LocationCache::new(&stats);
    let targets: Vec<_> = (0..SLOTS).map(|idx| (f, idx)).collect();

    // Cold batch populates the cache; a warm batch is pure hits.
    let warm = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(cache.len(), SLOTS);
    assert_eq!(stats.get("store.loc_cache_hits"), 0);
    let t = warm.iter().map(|(t, _)| *t).max().unwrap();
    store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(stats.get("store.loc_cache_hits"), SLOTS as u64);
    assert_eq!(stats.get("store.loc_cache_invalidations"), 0);

    // Crash: placement epoch moves, the stale map is dropped in one
    // invalidation, and the refill still reads the right bytes.
    store.set_benefactor_alive(BenefactorId(1), false);
    let refill = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(stats.get("store.loc_cache_invalidations"), 1);
    for (idx, (_, p)) in refill.iter().enumerate() {
        match p {
            ChunkPayload::Data(d) => assert_eq!(d[0], idx as u8 + 1),
            ChunkPayload::Zeros => panic!("written slot read as zeros"),
        }
    }
    assert_eq!(cache.len(), SLOTS, "cache refilled under the new epoch");
    let t = refill.iter().map(|(t, _)| *t).max().unwrap();

    // Repair re-homes the degraded copies: another epoch, another flush.
    let (t, repair) = store.repair_under_replicated(t);
    assert!(repair.chunks_repaired > 0);
    store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(stats.get("store.loc_cache_invalidations"), 2);

    // Recovery of the crashed benefactor: same rule once more, and the
    // final warm batch hits without a single stale-home read.
    store.set_benefactor_alive(BenefactorId(1), true);
    let final_read = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(stats.get("store.loc_cache_invalidations"), 3);
    let t = final_read.iter().map(|(t, _)| *t).max().unwrap();
    let hits_before = stats.get("store.loc_cache_hits");
    let warm = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert_eq!(
        stats.get("store.loc_cache_hits"),
        hits_before + SLOTS as u64
    );
    for (idx, (_, p)) in warm.iter().enumerate() {
        match p {
            ChunkPayload::Data(d) => assert_eq!(d[0], idx as u8 + 1),
            ChunkPayload::Zeros => panic!("written slot read as zeros"),
        }
    }
}
