use super::*;
use crate::ids::ChunkId;
use crate::loc_cache::LocationCache;
use crate::manager::{GroupRef, Slot};
use crate::rs::RsCode;
use ::faults;
use devices::{Ssd, INTEL_X25E};
use simcore::time::bytes::mib;

const CHUNK: u64 = 256 * 1024;

/// A 4-node store: manager on node 0, benefactors on nodes 1 and 2,
/// client drives from node 3.
fn store() -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(4, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for (i, node) in [1usize, 2].iter().enumerate() {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
    }
    (store, stats)
}

/// Bulk sequential I/O for these tests, one chunk per store call (clients
/// reach the store through their mount's data path instead).
trait SpanIo {
    fn write_span(
        &self,
        t: VTime,
        node: usize,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<VTime>;
    fn read_span(
        &self,
        t: VTime,
        node: usize,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<VTime>;
}

impl SpanIo for AggregateStore {
    fn write_span(
        &self,
        mut t: VTime,
        node: usize,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<VTime> {
        self.check_range(file, offset, data.len() as u64)?;
        for s in crate::segments(offset, data.len() as u64, CHUNK) {
            let run = (s.within as u64, &data[s.pos..s.pos + s.take]);
            t = self.write_pages(t, node, file, s.idx, &[run])?;
        }
        Ok(t)
    }

    fn read_span(
        &self,
        mut t: VTime,
        node: usize,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<VTime> {
        self.check_range(file, offset, buf.len() as u64)?;
        for s in crate::segments(offset, buf.len() as u64, CHUNK) {
            let (at, payload) = self.fetch_chunk(t, node, file, s.idx)?;
            t = at;
            match payload {
                ChunkPayload::Zeros => buf[s.pos..s.pos + s.take].fill(0),
                ChunkPayload::Data(chunk) => chunk.read(s.within, &mut buf[s.pos..s.pos + s.take]),
            }
        }
        Ok(t)
    }
}

fn make_file(store: &AggregateStore, name: &str, size: u64) -> FileId {
    let (t, f) = store.create_file(VTime::ZERO, 3, name).unwrap();
    store
        .fallocate(
            t,
            3,
            f,
            size,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    f
}

#[test]
fn hole_read_is_zeros_without_data_traffic() {
    let (store, stats) = store();
    let f = make_file(&store, "/m", 2 * CHUNK);
    let before = stats.get("net.bytes");
    let (_, payload) = store.fetch_chunk(VTime::ZERO, 3, f, 0).unwrap();
    assert_eq!(payload, ChunkPayload::Zeros);
    // Only RPC bytes moved (2 × 256).
    assert_eq!(stats.get("net.bytes") - before, 512);
    assert_eq!(stats.get("store.zero_fills"), 1);
}

#[test]
fn write_then_read_roundtrip() {
    let (store, _) = store();
    let f = make_file(&store, "/m", 2 * CHUNK);
    let page = vec![7u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(8192, &page)])
        .unwrap();
    let (_, payload) = store.fetch_chunk(t, 3, f, 0).unwrap();
    match payload {
        ChunkPayload::Data(data) => {
            assert_eq!(data[8192], 7);
            assert_eq!(data[8192 + 4095], 7);
            assert_eq!(data[0], 0);
        }
        _ => panic!("expected data"),
    }
}

/// Runs that overlap would be spliced into a digest the stored bytes do
/// not have (a healthy store would count a corrupt copy): rejected at
/// both entry points, whatever order they arrive in.
#[test]
#[should_panic(expected = "overlapping updates")]
fn write_pages_rejects_overlapping_runs() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let page = vec![7u8; 4096];
    let runs: Vec<(u64, &[u8])> = (0..64).map(|p| (p, &page[..])).collect();
    let _ = store.write_pages(VTime::ZERO, 3, f, 0, &runs);
}

#[test]
#[should_panic(expected = "overlapping updates")]
fn write_pages_batch_rejects_overlapping_runs() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let page = vec![7u8; 4096];
    // descending, so only the sorted check can see the overlap
    let batch = [BatchWrite {
        file: f,
        idx: 0,
        updates: &[(8192, &page), (4096 + 1, &page)],
    }];
    let _ = store.write_pages_batch(VTime::ZERO, 3, &batch);
}

#[test]
fn write_pages_accepts_disjoint_runs_in_any_order() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let (a, b) = (vec![1u8; 4096], vec![2u8; 4096]);
    let t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(8192, &a), (0, &b), (4096, &a)])
        .unwrap();
    assert_eq!(store.count_corrupt_copies(), 0);
    let (_, payload) = store.fetch_chunk(t, 3, f, 0).unwrap();
    let data = payload.into_buf(store.config());
    assert_eq!((data[0], data[4096], data[8192], data[12288]), (2, 1, 1, 0));
}

#[test]
fn remote_fetch_costs_network_plus_ssd() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let page = vec![1u8; 4096];
    let t0 = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    let (t1, _) = store.fetch_chunk(t0, 3, f, 0).unwrap();
    let elapsed = t1 - t0;
    // Lower bound: SSD latency + chunk/ssd_read_bw + chunk/net_bw.
    let ssd = VTime::from_micros(75) + simcore::Bandwidth::mb_per_sec(250.0).time_for(CHUNK);
    let net = simcore::Bandwidth::gbit_per_sec(2.0).time_for(CHUNK);
    assert!(elapsed >= ssd + net, "elapsed {elapsed}");
    // And not wildly more (RPCs and latencies only).
    assert!(
        elapsed < ssd + net + VTime::from_millis(2),
        "elapsed {elapsed}"
    );
}

#[test]
fn write_span_and_read_span_roundtrip() {
    let (store, _) = store();
    let f = make_file(&store, "/m", 3 * CHUNK);
    // Unaligned span crossing chunk boundaries.
    let data: Vec<u8> = (0..(CHUNK as usize + 9000))
        .map(|i| (i % 251) as u8)
        .collect();
    let t = store.write_span(VTime::ZERO, 3, f, 5000, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    store.read_span(t, 3, f, 5000, &mut out).unwrap();
    assert_eq!(out, data);
    // Outside the written span everything is still zero.
    let mut head = vec![0xAAu8; 5000];
    store.read_span(t, 3, f, 0, &mut head).unwrap();
    assert!(head.iter().all(|&b| b == 0));
}

#[test]
fn out_of_bounds_rejected() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let err = store.fetch_chunk(VTime::ZERO, 3, f, 1).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    let err = store
        .write_span(VTime::ZERO, 3, f, CHUNK - 1, &[0, 0])
        .unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
}

#[test]
fn check_range_refuses_a_range_whose_end_overflows() {
    let (store, _) = store();
    let f = make_file(&store, "/m", 4096);
    assert!(store.check_range(f, 4094, 2).is_ok());
    for (offset, len) in [(u64::MAX, 2), (2, u64::MAX), (u64::MAX, 0)] {
        let err = store.check_range(f, offset, len).unwrap_err();
        assert!(matches!(err, StoreError::OutOfBounds { size: 4096, .. }));
    }
}

#[test]
fn cow_preserves_checkpoint_content() {
    let (store, stats) = store();
    let f = make_file(&store, "/var", CHUNK);
    let page_a = vec![0xAu8; 4096];
    let mut t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page_a)])
        .unwrap();

    // Checkpoint: link the variable's chunks into /ckpt.
    let (t2, ckpt) = store.create_file(t, 3, "/ckpt").unwrap();
    t = store.link_file(t2, 3, ckpt, f).unwrap();

    // Modify the variable after the checkpoint.
    let page_b = vec![0xBu8; 4096];
    t = store.write_pages(t, 3, f, 0, &[(0, &page_b)]).unwrap();
    assert_eq!(stats.get("store.cow_clones"), 1);

    // Variable sees new data; checkpoint still has the old bytes.
    let (_, var_data) = store.fetch_chunk(t, 3, f, 0).unwrap();
    let (_, ckpt_data) = store.fetch_chunk(t, 3, ckpt, 0).unwrap();
    match (var_data, ckpt_data) {
        (ChunkPayload::Data(v), ChunkPayload::Data(c)) => {
            assert_eq!(v[0], 0xB);
            assert_eq!(c[0], 0xA);
            // The clone shares every page the variable did not rewrite.
            assert_eq!(v.shared_leaves(&c), 63);
        }
        _ => panic!("expected data"),
    }
}

#[test]
fn second_write_after_cow_is_in_place() {
    let (store, stats) = store();
    let f = make_file(&store, "/var", CHUNK);
    let page = vec![1u8; 4096];
    let mut t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    let (t2, ckpt) = store.create_file(t, 3, "/ckpt").unwrap();
    t = store.link_file(t2, 3, ckpt, f).unwrap();
    t = store.write_pages(t, 3, f, 0, &[(0, &page)]).unwrap();
    assert_eq!(stats.get("store.cow_clones"), 1);
    // Refcount is back to 1: next write must not clone again.
    store.write_pages(t, 3, f, 0, &[(4096, &page)]).unwrap();
    assert_eq!(stats.get("store.cow_clones"), 1);
}

#[test]
fn dead_benefactor_fails_fetch() {
    let (store, _) = store();
    let f = make_file(&store, "/m", 2 * CHUNK);
    let page = vec![1u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    store.set_benefactor_alive(BenefactorId(0), false);
    let err = store.fetch_chunk(t, 3, f, 0).unwrap_err();
    assert_eq!(err, StoreError::BenefactorDown(BenefactorId(0)));
}

#[test]
fn dirty_page_traffic_is_page_sized_not_chunk_sized() {
    let (store, stats) = store();
    let f = make_file(&store, "/m", CHUNK);
    let page = vec![1u8; 4096];
    store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    assert_eq!(stats.get("store.bytes_from_clients"), 4096);
}

/// `n` benefactors on nodes `1..=n`; the client drives from node `n+1`.
fn store_n(n: usize) -> (AggregateStore, StatsRegistry) {
    store_n_with(n, StoreConfig::default())
}

fn store_n_with(n: usize, cfg: StoreConfig) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(n + 2, &stats);
    let store = AggregateStore::new(cfg, net, &stats);
    for i in 0..n {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(i + 1, ssd, mib(64), CHUNK));
    }
    (store, stats)
}

/// A stripe row is the stripe's width, whole parity groups of it under
/// RS, and the fleet for a file that only links.
#[test]
fn stripe_row_follows_the_stripe_and_the_parity_groups() {
    let (store, _) = store_n(7);
    let file = |name: &str, stripe: Option<StripeSpec>| {
        let (t, f) = store.create_file(VTime::ZERO, 0, name).unwrap();
        if let Some(stripe) = stripe {
            let placement = PlacementPolicy::RoundRobin;
            store
                .fallocate(t, 0, f, 4 * CHUNK, stripe, placement)
                .unwrap();
        }
        f
    };
    let row = |f| store.stripe_row(f).unwrap();
    assert_eq!(row(file("/all", Some(StripeSpec::all()))), 7);
    assert_eq!(row(file("/two", Some(StripeSpec::count(2)))), 2);
    // Seven wide in groups of four data members: two whole groups.
    assert_eq!(
        row(file("/rs", Some(StripeSpec::all().with_parity(4, 2)))),
        8
    );
    assert_eq!(row(file("/links", None)), 7);
    assert!(store.stripe_row(FileId(99)).is_err());
}

fn make_file_replicated(
    store: &AggregateStore,
    node: usize,
    name: &str,
    size: u64,
    k: usize,
) -> FileId {
    let (t, f) = store.create_file(VTime::ZERO, node, name).unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            size,
            StripeSpec::all().with_replicas(k),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    f
}

#[test]
fn replicated_write_lands_on_every_replica() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page = vec![9u8; 4096];
    store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    // Dirty bytes shipped once per replica.
    assert_eq!(stats.get("store.bytes_from_clients"), 2 * 4096);
    let mgr = store.manager();
    let meta = mgr.file(f).unwrap();
    let c = match meta.slots[0] {
        Slot::Chunk(c) => c,
        _ => panic!("chunk not materialized"),
    };
    let homes = mgr.chunk_homes(c).unwrap().to_vec();
    assert_eq!(homes.len(), 2);
    assert_ne!(homes[0], homes[1], "replicas on distinct benefactors");
    for h in homes {
        assert!(mgr.benefactor(h).has_chunk(c));
    }
}

#[test]
fn replication_needs_enough_benefactors() {
    let (store, _) = store_n(2);
    let (t, f) = store.create_file(VTime::ZERO, 3, "/m").unwrap();
    let err = store
        .fallocate(
            t,
            3,
            f,
            CHUNK,
            StripeSpec::all().with_replicas(3),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        StoreError::NotEnoughBenefactors {
            requested: 3,
            alive: 2
        }
    ));
}

#[test]
fn read_fails_over_to_surviving_replica() {
    let (store, stats) = store_n(2);
    let client = 3;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page = vec![7u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    store.set_benefactor_alive(BenefactorId(0), false);
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    match payload {
        ChunkPayload::Data(data) => assert_eq!(data[0], 7),
        _ => panic!("expected data"),
    }
    assert_eq!(stats.get("store.failovers"), 1);
    assert_eq!(stats.get("store.degraded_reads"), 1);
}

#[test]
fn write_during_outage_drops_dead_copy_and_recovery_reconciles() {
    let (store, _) = store_n(2);
    let client = 3;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page_a = vec![0xAu8; 4096];
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page_a)])
        .unwrap();
    let c = match store.manager().file(f).unwrap().slots[0] {
        Slot::Chunk(c) => c,
        _ => unreachable!(),
    };
    // Primary dies; the next write lands only on the survivor and the
    // dead copy is dropped from the home list (it is stale now).
    store.set_benefactor_alive(BenefactorId(0), false);
    let page_b = vec![0xBu8; 4096];
    t = store.write_pages(t, client, f, 0, &[(0, &page_b)]).unwrap();
    assert_eq!(
        store.manager().chunk_homes(c).unwrap(),
        &[BenefactorId(1)],
        "dead copy dropped"
    );
    // Recovery reconciles: the stale physical copy is deleted, so no
    // read can ever observe the pre-outage bytes.
    store.set_benefactor_alive(BenefactorId(0), true);
    assert!(!store.manager().benefactor(BenefactorId(0)).has_chunk(c));
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    match payload {
        ChunkPayload::Data(data) => assert_eq!(data[0], 0xB),
        _ => panic!("expected data"),
    }
}

#[test]
fn repair_restores_replica_degree() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_replicated(&store, client, "/m", 2 * CHUNK, 2);
    let page = vec![5u8; 4096];
    let mut t = VTime::ZERO;
    for idx in 0..2 {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    // b1 hosts one copy of both chunks (slot 0 → {b0,b1}, slot 1 →
    // {b1,b2}); killing it degrades both.
    store.set_benefactor_alive(BenefactorId(1), false);
    // Touch the chunks so the dead copies are dropped from metadata.
    for idx in 0..2 {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    assert_eq!(store.manager().under_replicated().len(), 2);

    let (t_done, report) = store.repair_under_replicated(t);
    assert_eq!(report.chunks_repaired, 2);
    assert_eq!(report.bytes_copied, 2 * CHUNK);
    assert_eq!(report.chunks_unrepairable, 0);
    assert!(t_done > t, "repair consumes virtual time");
    assert!(store.manager().under_replicated().is_empty());
    assert_eq!(stats.get("store.repairs_bytes"), 2 * CHUNK);
    // Every chunk is back on two live benefactors.
    let mgr = store.manager();
    for idx in 0..2 {
        let c = match mgr.file(f).unwrap().slots[idx] {
            Slot::Chunk(c) => c,
            _ => unreachable!(),
        };
        let homes = mgr.chunk_homes(c).unwrap();
        assert_eq!(homes.len(), 2);
        assert!(homes.iter().all(|&h| mgr.benefactor(h).is_alive()));
    }
}

#[test]
fn fault_plan_crash_is_survived_with_replicas() {
    let (store, stats) = store_n(2);
    let client = 3;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page = vec![3u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    store.attach_faults(
        faults::FaultPlanBuilder::new(42)
            .crash(t + VTime::from_millis(1), 0)
            .build(),
    );
    // Before the scheduled crash: clean read from the primary.
    let (_, p1) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(stats.get("store.failovers"), 0);
    // After it: the poll applies the crash and the read fails over.
    let (_, p2) = store
        .fetch_chunk(t + VTime::from_millis(2), client, f, 0)
        .unwrap();
    assert_eq!(p1, p2, "failover returns identical bytes");
    assert_eq!(stats.get("store.benefactor_crashes"), 1);
    assert!(stats.get("store.failovers") > 0);
}

#[test]
fn fetch_retry_waits_out_a_scheduled_recovery() {
    let (store, stats) = store_n(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let page = vec![1u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    store.set_benefactor_alive(BenefactorId(0), false);
    // A recovery lands within the retry window (default 2 × 5 ms).
    store.attach_faults(
        faults::FaultPlanBuilder::new(7)
            .recover(t + VTime::from_millis(8), 0)
            .build(),
    );
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert!(matches!(payload, ChunkPayload::Data(_)));
    assert_eq!(stats.get("store.benefactor_recoveries"), 1);
    assert!(stats.get("store.degraded_reads") > 0);
}

/// Like `store_n` but with read verification switched on.
fn store_verify(n: usize) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(n + 2, &stats);
    let cfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, net, &stats);
    for i in 0..n {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(i + 1, ssd, mib(64), CHUNK));
    }
    (store, stats)
}

fn chunk_of(store: &AggregateStore, f: FileId, idx: usize) -> ChunkId {
    match store.manager().file(f).unwrap().slots[idx] {
        Slot::Chunk(c) => c,
        _ => panic!("slot {idx} not materialized"),
    }
}

#[test]
fn verified_read_fails_over_on_corrupt_replica_and_repairs() {
    let (store, stats) = store_verify(3);
    let client = 4;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page = vec![7u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    let c = chunk_of(&store, f, 0);
    let (primary, replica) = {
        let mgr = store.manager();
        let homes = mgr.chunk_homes(c).unwrap();
        (homes[0], homes[1])
    };
    store.manager().benefactor_mut(primary).corrupt_chunk(c, 5);
    // Both homes were handed the one fresh table; the rot takes a private
    // copy of the leaf it hit and stays on that home.
    assert!(!copies::is_clean(&store.manager(), c, primary));
    assert!(copies::is_clean(&store.manager(), c, replica));
    {
        let mgr = store.manager();
        let (bad, good) = (mgr.benefactor(primary), mgr.benefactor(replica));
        let (bad, good) = (bad.peek_chunk(c).unwrap(), good.peek_chunk(c).unwrap());
        assert_eq!(bad.shared_leaves(good), 63);
    }
    assert_eq!(store.count_corrupt_copies(), 1);

    // The read detects the rot, fails over to the replica and returns
    // the right bytes — never the corrupt ones.
    let (t2, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    match payload {
        ChunkPayload::Data(data) => {
            assert_eq!(data[0], 7);
            assert_eq!(data[5], 7, "served bytes are the intact copy's");
        }
        _ => panic!("expected data"),
    }
    assert_eq!(stats.get("store.crc_mismatches"), 1);
    assert_eq!(stats.get("store.degraded_reads"), 1);
    // The bad copy was quarantined: dropped from the home list and
    // reclaimed, leaving the chunk under-replicated for repair.
    let homes = store.manager().chunk_homes(c).unwrap().to_vec();
    assert_eq!(homes.len(), 1);
    assert!(!homes.contains(&primary));
    assert!(!store.manager().benefactor(primary).has_chunk(c));
    assert_eq!(store.manager().under_replicated().len(), 1);
    let (_, report) = store.repair_under_replicated(t2);
    assert_eq!(report.chunks_repaired, 1);
    assert_eq!(store.count_corrupt_copies(), 0);
    assert_eq!(store.manager().chunk_homes(c).unwrap().len(), 2);
}

#[test]
fn corrupt_sole_copy_is_a_deterministic_error_not_wrong_data() {
    let (store, stats) = store_verify(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let page = vec![9u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    let c = chunk_of(&store, f, 0);
    store
        .manager()
        .benefactor_mut(BenefactorId(0))
        .corrupt_chunk(c, 100);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert_eq!(
        err,
        StoreError::ChunkCorrupt {
            chunk: c,
            benefactor: BenefactorId(0)
        }
    );
    // The bad copy is read (and counted) exactly once; retries skip it.
    assert_eq!(stats.get("store.crc_mismatches"), 1);
    // The sole copy stays listed: the metadata invariant holds and a
    // later restore-from-elsewhere can still find the slot.
    assert_eq!(store.manager().chunk_homes(c).unwrap(), &[BenefactorId(0)]);
    // Identical on retry: deterministic, never silent.
    let err2 = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert!(matches!(err2, StoreError::ChunkCorrupt { .. }));
}

#[test]
fn partial_overwrite_of_a_rotten_sole_copy_is_refused_not_laundered() {
    let (store, _) = store_verify(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let fives = vec![5u8; CHUNK as usize];
    let t = store.write_span(VTime::ZERO, client, f, 0, &fives).unwrap();
    let c = chunk_of(&store, f, 0);
    // The base has been vetted and served before the rot lands: whatever
    // a digest remembers about the stored pages, it remembers from now.
    assert!(copies::is_clean(&store.manager(), c, BenefactorId(0)));
    let (t, _) = store.fetch_chunk(t, client, f, 0).unwrap();
    store
        .manager()
        .benefactor_mut(BenefactorId(0))
        .corrupt_chunk(c, 245_583);
    assert_eq!(store.count_corrupt_copies(), 1);
    // A one-page overwrite elsewhere in the chunk would have to splice
    // the new digest from the rotten bytes: refused with the declared
    // error, and nothing changes — the rot stays detectable.
    let page = vec![9u8; 4096];
    let corrupt = StoreError::ChunkCorrupt {
        chunk: c,
        benefactor: BenefactorId(0),
    };
    let err = store
        .write_pages(t, client, f, 0, &[(8192, &page)])
        .unwrap_err();
    assert_eq!(err, corrupt);
    let batch = [BatchWrite {
        file: f,
        idx: 0,
        updates: &[(8192, &page)],
    }];
    assert_eq!(
        store.write_pages_batch(t, client, &batch).unwrap_err(),
        corrupt
    );
    assert_eq!(store.count_corrupt_copies(), 1, "rot must not be laundered");
    assert_eq!(store.fetch_chunk(t, client, f, 0).unwrap_err(), corrupt);
}

#[test]
fn whole_chunk_overwrite_of_a_rotten_sole_copy_heals_it() {
    // With and without `verify_reads`: runs covering the whole chunk need
    // no base, so no stored byte — rotten or not — reaches the new digest.
    for (store, _) in [store_verify(1), store_n(1)] {
        let client = 2;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
        let fives = vec![5u8; CHUNK as usize];
        let t = store.write_span(VTime::ZERO, client, f, 0, &fives).unwrap();
        let c = chunk_of(&store, f, 0);
        store
            .manager()
            .benefactor_mut(BenefactorId(0))
            .corrupt_chunk(c, 245_583);
        // The write goes ahead and the recorded digest is that of the new
        // content, composed from the (here two) runs alone.
        let sevens = vec![7u8; CHUNK as usize];
        let (head, tail) = sevens.split_at(12_288);
        let t = store
            .write_pages(t, client, f, 0, &[(0, head), (12_288, tail)])
            .unwrap();
        assert_eq!(
            store.manager().chunk_crc(c),
            Some(crate::crc::crc64(&sevens))
        );
        assert_eq!(store.count_corrupt_copies(), 0);
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        assert!(payload.into_buf(store.config()) == sevens[..]);
    }
}

#[test]
fn torn_write_is_detected_by_verified_read() {
    let (store, _) = store_verify(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    store.attach_faults(
        faults::FaultPlanBuilder::new(11)
            .torn_write(VTime::from_micros(1), 0)
            .build(),
    );
    // The write happens after the tear is armed: only the first half
    // of the chunk lands, but the manager recorded the intended CRC.
    let data = vec![3u8; CHUNK as usize];
    let t = store
        .write_span(VTime::from_micros(2), client, f, 0, &data)
        .unwrap();
    assert_eq!(store.count_corrupt_copies(), 1);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert!(matches!(err, StoreError::ChunkCorrupt { .. }));
}

/// The shape of `torn_write_is_detected_by_verified_read`, on an
/// *overwrite* whose two sides have both been digested already: the stored
/// pages by a verified fetch, the new ones when they were cut. The tear
/// keeps the first new page and the second old one; the recorded digest is
/// of two new pages, and nothing either side remembers hides that.
#[test]
fn torn_overwrite_of_a_fetched_chunk_is_detected_by_verified_read() {
    let (store, _) = store_verify(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let threes = vec![3u8; CHUNK as usize];
    let t = store
        .write_span(VTime::ZERO, client, f, 0, &threes)
        .unwrap();
    let (t, _) = store.fetch_chunk(t, client, f, 0).unwrap();
    let c = chunk_of(&store, f, 0);
    store
        .manager()
        .benefactor_mut(BenefactorId(0))
        .arm_torn_write();
    let t = store
        .write_pages(t, client, f, 0, &[(4096, &[8u8; 8192])])
        .unwrap();
    {
        let mgr = store.manager();
        let stored = mgr.benefactor(BenefactorId(0)).peek_chunk(c).unwrap();
        assert_eq!((stored[4096], stored[8191], stored[8192]), (8, 8, 3));
    }
    assert!(!copies::is_clean(&store.manager(), c, BenefactorId(0)));
    assert_eq!(store.count_corrupt_copies(), 1);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert!(matches!(err, StoreError::ChunkCorrupt { .. }));
}

/// Rot that lands *after* a verified fetch has digested every stored page
/// is caught by the next one: the vet mismatches, the read fails over to
/// the replica and the bad copy is dropped.
#[test]
fn rot_after_a_verified_fetch_is_caught_by_the_next_one() {
    let (store, stats) = store_verify(2);
    let client = 3;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let data: Vec<u8> = (0..CHUNK).map(|i| (i / 4096 + i % 251) as u8).collect();
    let t = store.write_span(VTime::ZERO, client, f, 0, &data).unwrap();
    let c = chunk_of(&store, f, 0);
    let (t, first) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(stats.get("store.crc_mismatches"), 0);
    let primary = store.manager().chunk_homes(c).unwrap()[0];
    store
        .manager()
        .benefactor_mut(primary)
        .corrupt_chunk(c, 17 * 4096 + 5);
    assert!(!copies::is_clean(&store.manager(), c, primary));
    assert_eq!(store.count_corrupt_copies(), 1);
    let (_, second) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(stats.get("store.crc_mismatches"), 1);
    assert_eq!(stats.get("store.failovers"), 1);
    assert_eq!(store.manager().chunk_homes(c).unwrap().len(), 1);
    // Neither payload ever held the rotten byte.
    assert!(first.into_buf(store.config()) == data[..]);
    assert!(second.into_buf(store.config()) == data[..]);
}

/// What a vet reads: the pages nobody has digested since they last
/// changed, and on a second look nothing at all.
#[test]
fn a_second_vet_of_an_untouched_chunk_reads_no_payload_byte() {
    let absorbed = || crate::crc::ABSORBED.with(|n| n.get());
    let (store, _) = store_verify(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let data: Vec<u8> = (0..CHUNK).map(|i| (i * 7 / 4) as u8).collect();
    let t = store.write_span(VTime::ZERO, client, f, 0, &data).unwrap();
    let c = chunk_of(&store, f, 0);
    let standing = |store: &AggregateStore| {
        let mgr = store.manager();
        let stored = mgr.benefactor(BenefactorId(0)).peek_chunk(c).unwrap();
        stored.standing_sums()
    };
    // Every page arrived cut from caller bytes, digested while hot.
    assert_eq!(standing(&store), 64);
    // An 8-byte overwrite lands by copy into page 3: that page's sum is
    // gone, the recorded digest was spliced from the bytes themselves.
    let t = store
        .write_pages(t, client, f, 0, &[(3 * 4096 + 16, &[0xEEu8; 8])])
        .unwrap();
    assert_eq!(standing(&store), 63);
    let before = absorbed();
    assert!(copies::is_clean(&store.manager(), c, BenefactorId(0)));
    assert_eq!(
        absorbed() - before,
        4096,
        "the one page nobody had digested"
    );
    assert_eq!(standing(&store), 64);
    let before = absorbed();
    assert!(copies::is_clean(&store.manager(), c, BenefactorId(0)));
    store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(
        absorbed() - before,
        0,
        "a vet and a verified fetch of 64 pages"
    );
}

#[test]
fn torn_write_tears_only_the_armed_home() {
    let (store, _) = store_verify(2);
    let client = 3;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    store
        .manager()
        .benefactor_mut(BenefactorId(1))
        .arm_torn_write();
    let data = vec![3u8; CHUNK as usize];
    let t = store.write_span(VTime::ZERO, client, f, 0, &data).unwrap();
    let c = chunk_of(&store, f, 0);
    // The fresh write handed both homes the same table; the tear
    // truncated a private copy of it, which still shares the half that
    // landed.
    assert!(copies::is_clean(&store.manager(), c, BenefactorId(0)));
    assert!(!copies::is_clean(&store.manager(), c, BenefactorId(1)));
    {
        let mgr = store.manager();
        let whole = mgr.benefactor(BenefactorId(0)).peek_chunk(c).unwrap();
        let torn = mgr.benefactor(BenefactorId(1)).peek_chunk(c).unwrap();
        assert_eq!(whole.shared_leaves(torn), 32);
    }
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert!(payload.into_buf(store.config()) == data[..]);
}

#[test]
fn fetched_payload_is_a_snapshot_of_the_serving_copy() {
    let (store, _) = store_n(1);
    let client = 2;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
    let fives = vec![5u8; CHUNK as usize];
    let t = store.write_span(VTime::ZERO, client, f, 0, &fives).unwrap();
    let (t, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    // The payload shares the stored leaves; rot and an in-place update on
    // the benefactor that served it must each un-share what they touch.
    let c = chunk_of(&store, f, 0);
    store
        .manager()
        .benefactor_mut(BenefactorId(0))
        .corrupt_chunk(c, 100);
    store
        .write_pages(t, client, f, 0, &[(8192, &[9u8; 4096])])
        .unwrap();
    let payload = payload.into_buf(store.config());
    assert!(payload == fives[..]);
    let mgr = store.manager();
    let stored = mgr.benefactor(BenefactorId(0)).peek_chunk(c).unwrap();
    assert_eq!((stored[100], stored[8192]), (5 ^ 0xFF, 9));
    // Leaf 0 rotted and leaf 2 was rewritten; the other 62 are still the
    // allocations the payload holds.
    assert_eq!(payload.shared_leaves(stored), 62);
}

#[test]
fn scrub_daemon_finds_and_repairs_bit_rot() {
    let (store, stats) = store_verify(3);
    let client = 4;
    let f = make_file_replicated(&store, client, "/m", 4 * CHUNK, 2);
    let page = vec![5u8; 4096];
    let mut t = VTime::ZERO;
    for idx in 0..4 {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    // Rot every copy on benefactor 0 (rate 10000 bp = certain).
    store.attach_faults(
        faults::FaultPlanBuilder::new(21)
            .bit_rot(t + VTime::from_micros(1), 0, 10_000)
            .build(),
    );
    store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(1),
            chunks_per_pass: 16,
        },
        t + VTime::from_micros(2),
    );
    store.poll_faults(t + VTime::from_millis(1));
    assert!(stats.get("store.crc_mismatches") > 0, "rot detected");
    assert!(stats.get("store.scrub_repairs") > 0, "replicas restored");
    assert_eq!(stats.get("store.scrub_passes"), 1);
    assert_eq!(store.count_corrupt_copies(), 0, "no rot left behind");
    // Every chunk is back at full degree on intact copies.
    let mgr = store.manager();
    for idx in 0..4 {
        let c = match mgr.file(f).unwrap().slots[idx] {
            Slot::Chunk(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(mgr.chunk_homes(c).unwrap().len(), 2);
    }
}

#[test]
fn scrub_never_replicates_a_copy_it_just_found_corrupt() {
    let (store, stats) = store_verify(3);
    let client = 4;
    let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
    let page = vec![5u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
        .unwrap();
    let c = chunk_of(&store, f, 0);
    let homes = store.manager().chunk_homes(c).unwrap().to_vec();
    // One home dies and a write drops it: a sole copy, target still 2.
    store.set_benefactor_alive(homes[0], false);
    let t = store
        .write_pages(t, client, f, 0, &[(4096, &page)])
        .unwrap();
    assert_eq!(store.manager().chunk_homes(c).unwrap(), &[homes[1]]);
    // The survivor rots; the scrub pass that finds it must not use it
    // as the donor of the missing replica.
    store
        .manager()
        .benefactor_mut(homes[1])
        .corrupt_chunk(c, 77);
    store.attach_scrub(ScrubConfig::default(), t);
    store.poll_faults(t);
    assert_eq!(stats.get("store.scrub_passes"), 1);
    assert_eq!(stats.get("store.crc_mismatches"), 1);
    assert_eq!(store.count_corrupt_copies(), 1, "rot must not spread");
    assert_eq!(
        stats.get("store.scrub_repairs"),
        0,
        "a bad copy is no repair"
    );
    assert_eq!(store.manager().chunk_homes(c).unwrap(), &[homes[1]]);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert!(matches!(err, StoreError::ChunkCorrupt { .. }));
}

#[test]
fn scrub_quarantines_rotten_benefactor_and_placement_avoids_it() {
    let (store, stats) = store_verify(3);
    let client = 4;
    // Benefactor 0's media corrupts every write it takes.
    store.attach_faults(
        faults::FaultPlanBuilder::new(31)
            .corruption_rate(VTime::from_micros(1), 0, 10_000)
            .build(),
    );
    // 16 chunks x 2 replicas round-robin over 3 benefactors: benefactor
    // 0 holds more than the QUARANTINE_MIN_SAMPLES copies one pass needs.
    let chunks = 16;
    let f = make_file_replicated(&store, client, "/m", chunks as u64 * CHUNK, 2);
    let page = vec![1u8; 4096];
    let mut t = VTime::from_micros(2);
    for idx in 0..chunks {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(1),
            chunks_per_pass: chunks,
        },
        t,
    );
    store.poll_faults(t + VTime::from_millis(1));
    assert!(
        store.manager().benefactor(BenefactorId(0)).is_quarantined(),
        "persistent corrupter crosses the quarantine threshold"
    );
    assert_eq!(stats.get("store.quarantined"), 1);
    assert!(store.manager().benefactor(BenefactorId(0)).is_alive());
    // New placements avoid it.
    let g = make_file_replicated(&store, client, "/n", 2 * CHUNK, 2);
    assert!(
        !store
            .manager()
            .file(g)
            .unwrap()
            .stripe
            .contains(&BenefactorId(0)),
        "quarantined benefactor excluded from new stripes"
    );
}

#[test]
fn integrity_knobs_off_changes_nothing() {
    // Same workload, verification on vs off, no corruption anywhere:
    // identical virtual times, and the knobs-off run registers none
    // of the integrity counters (committed bench expectations must
    // not grow keys).
    let run = |verify: bool| -> (VTime, bool) {
        let stats = StatsRegistry::new();
        let net = Network::new(4, &stats);
        let cfg = StoreConfig {
            verify_reads: verify,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        let f = make_file(&store, "/m", 4 * CHUNK);
        let data: Vec<u8> = (0..2 * CHUNK as usize + 777)
            .map(|i| (i % 249) as u8)
            .collect();
        let mut t = store.write_span(VTime::ZERO, 3, f, 100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        t = store.read_span(t, 3, f, 100, &mut buf).unwrap();
        assert_eq!(buf, data);
        t = store.write_span(t, 3, f, 0, &data[..4096]).unwrap();
        let has_keys = stats.snapshot().values.contains_key("store.crc_mismatches");
        (t, has_keys)
    };
    let (t_off, keys_off) = run(false);
    let (t_on, keys_on) = run(true);
    assert_eq!(t_off, t_on, "verification is timing-neutral when clean");
    assert!(!keys_off, "knobs off: no integrity counters registered");
    assert!(keys_on, "verify on: integrity counters present");
}

// ----- sharded placement manager (DESIGN.md §12) ------------------------

/// `n` benefactors on nodes `1..=n` with `shards` placement-shard
/// ranks round-robin on those same nodes; client drives from `n+1`.
fn store_sharded(n: usize, shards: usize) -> (AggregateStore, StatsRegistry) {
    let cfg = StoreConfig {
        manager_shards: shards,
        ..StoreConfig::default()
    };
    let (store, stats) = store_n_with(n, cfg);
    let nodes: Vec<usize> = (0..shards).map(|k| (k % n) + 1).collect();
    store.install_shards(&nodes, 77);
    (store, stats)
}

#[test]
fn per_op_rpc_counters_split_the_aggregate() {
    let (store, stats) = store();
    let f = make_file(&store, "/m", 2 * CHUNK); // create + fallocate
    let page = vec![8u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    let (t, _) = store.fetch_chunk(t, 3, f, 0).unwrap();
    let (_, found) = store.open(t, 3, "/m").unwrap();
    assert_eq!(found, Some(f));
    assert_eq!(stats.get("store.mgr_rpc_place"), 3);
    assert_eq!(stats.get("store.mgr_rpc_write"), 1);
    assert_eq!(stats.get("store.mgr_rpc_fetch"), 1);
    assert_eq!(
        stats.get("store.mgr_rpc_fetch")
            + stats.get("store.mgr_rpc_write")
            + stats.get("store.mgr_rpc_place"),
        stats.get("store.mgr_rpcs"),
        "the per-op split always totals the aggregate"
    );
}

/// With one shard co-located with the serial manager's node, a mixed
/// workload (batched writes, batched + serial fetches through a
/// `LocationCache`, namespace ops, a crash and cold reboot of rank 0) is
/// bit-identical to the serial manager: same per-op virtual times, and
/// the same counter snapshot except `store.shard_rpcs.s0`, the one
/// counter a shard set adds.
#[test]
fn single_shard_matches_serial_manager_exactly() {
    let run = |sharded: bool| {
        let stats = StatsRegistry::new();
        let net = Network::new(4, &stats);
        let cfg = StoreConfig {
            manager_shards: usize::from(sharded),
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        if sharded {
            store.install_shards(&[0], 77);
        }
        let cache = LocationCache::new(&stats);
        let (t, f) = store.create_file(VTime::ZERO, 3, "/m").unwrap();
        let t = store
            .fallocate(
                t,
                3,
                f,
                4 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let page = vec![5u8; 4096];
        let upd = [(0u64, page.as_slice())];
        let batch = [
            BatchWrite {
                file: f,
                idx: 0,
                updates: &upd,
            },
            BatchWrite {
                file: f,
                idx: 1,
                updates: &upd,
            },
            BatchWrite {
                file: f,
                idx: 2,
                updates: &upd,
            },
        ];
        let mut times = Vec::new();
        let ends = store.write_pages_batch(t, 3, &batch).unwrap();
        let mut t = ends.iter().copied().max().unwrap();
        times.extend(ends);
        // Rank 0 crashes as the reads begin and, with no standby, reboots
        // cold 7 ms later: the resolution RPC waits it out in the retry
        // loop.
        let reboot = t + VTime::from_millis(7);
        store.attach_faults(
            faults::FaultPlanBuilder::new(5)
                .mgr_crash(t, 0)
                .mgr_recover(reboot, 0)
                .build(),
        );
        // Cold cache: one resolution RPC, then benefactor chains.
        let r = store
            .fetch_chunks(t, 3, &[(f, 0), (f, 1), (f, 2), (f, 3)], Some(&cache))
            .unwrap();
        t = r.iter().map(|&(e, _)| e).max().unwrap();
        assert!(t > reboot, "served only after the reboot");
        assert!(!store.manager_rank_down(0));
        times.extend(r.iter().map(|&(e, _)| e));
        // Warm cache: no RPC, whatever the manager's shape.
        let rpcs_before = stats.get("store.mgr_rpcs");
        let r = store
            .fetch_chunks(t, 3, &[(f, 0), (f, 2)], Some(&cache))
            .unwrap();
        assert_eq!(
            stats.get("store.mgr_rpcs"),
            rpcs_before,
            "hot path skips the manager"
        );
        t = r.iter().map(|&(e, _)| e).max().unwrap();
        times.extend(r.iter().map(|&(e, _)| e));
        // Serial data + control plane for good measure.
        let (t2, _) = store.fetch_chunk(t, 3, f, 1).unwrap();
        let t3 = store.write_pages(t2, 3, f, 3, &[(0, &page)]).unwrap();
        let (t4, found) = store.open(t3, 3, "/m").unwrap();
        assert!(found.is_some());
        times.extend([t2, t3, t4]);
        (times, stats.snapshot().values)
    };
    let (t_serial, c_serial) = run(false);
    let (t_sharded, mut c_sharded) = run(true);
    assert_eq!(t_serial, t_sharded, "shards=1 is bit-identical");
    let shard_rpcs = c_sharded.remove("store.shard_rpcs.s0");
    assert_eq!(shard_rpcs, Some(c_serial["store.mgr_rpcs"]));
    assert_eq!(c_serial, c_sharded, "every other counter agrees");
}

#[test]
fn rpcs_route_by_slot_owner_and_count_per_shard() {
    let (store, stats) = store_sharded(2, 2);
    let client = 3;
    let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
    let mut t = store
        .fallocate(
            t,
            client,
            f,
            8 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    // Namespace ops went to the root shard.
    assert_eq!(stats.get("store.shard_rpcs.s0"), 2);
    assert_eq!(stats.get("store.mgr_rpc_place"), 2);
    let before = [
        stats.get("store.shard_rpcs.s0"),
        stats.get("store.shard_rpcs.s1"),
    ];
    let mut expect = [0u64, 0u64];
    let page = vec![9u8; 4096];
    for idx in 0..8 {
        expect[store.shard_of_slot(f, idx).unwrap()] += 2; // write + fetch
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        let (t2, _) = store.fetch_chunk(t, client, f, idx).unwrap();
        t = t2;
    }
    assert!(
        expect[0] > 0 && expect[1] > 0,
        "both shards own some of the keyspace"
    );
    assert_eq!(stats.get("store.shard_rpcs.s0") - before[0], expect[0]);
    assert_eq!(stats.get("store.shard_rpcs.s1") - before[1], expect[1]);
    assert_eq!(stats.get("store.mgr_rpc_fetch"), 8);
    assert_eq!(stats.get("store.mgr_rpc_write"), 8);
    assert_eq!(stats.get("store.mgr_rpcs"), 2 + 16);
}

#[test]
fn shard_crash_quarantines_only_its_keyspace() {
    let (store, _) = store_sharded(2, 2);
    let client = 3;
    let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
    let mut t = store
        .fallocate(
            t,
            client,
            f,
            16 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let page = vec![2u8; 4096];
    for idx in 0..16 {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    let owned_by = |s: usize| {
        (0..16)
            .find(|&i| store.shard_of_slot(f, i) == Some(s))
            .expect("shard owns a slot")
    };
    let dead_slot = owned_by(1);
    let live_slot = owned_by(0);
    store.set_manager_alive(1, false, t);
    // The dead rank's keyspace errors once the retry window runs out…
    let err = store.fetch_chunk(t, client, f, dead_slot).unwrap_err();
    assert_eq!(err, StoreError::ManagerDown(1));
    let err = store
        .write_pages(t, client, f, dead_slot, &[(0, &page)])
        .unwrap_err();
    assert_eq!(err, StoreError::ManagerDown(1));
    // …while the other shard and the namespace keep serving.
    let (t2, _) = store.fetch_chunk(t, client, f, live_slot).unwrap();
    let (t3, found) = store.open(t2, client, "/m").unwrap();
    assert_eq!(found, Some(f));
    // The crash alone moves no epoch: cached placements ride through.
    let epoch = store.manager().placement_epoch();
    // A cold reboot restores service and bumps the placement epoch.
    store.set_manager_alive(1, true, t3);
    assert!(store.manager().placement_epoch() > epoch);
    store.fetch_chunk(t3, client, f, dead_slot).unwrap();
}

#[test]
fn cached_clients_ride_through_a_shard_crash() {
    let (store, stats) = store_sharded(2, 2);
    let client = 3;
    let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
    let t = store
        .fallocate(
            t,
            client,
            f,
            8 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let cache = LocationCache::new(&stats);
    let page = vec![4u8; 4096];
    let upd = [(0u64, page.as_slice())];
    let batch: Vec<BatchWrite> = (0..8)
        .map(|idx| BatchWrite {
            file: f,
            idx,
            updates: &upd,
        })
        .collect();
    let ends = store.write_pages_batch(t, client, &batch).unwrap();
    let t = ends.iter().copied().max().unwrap();
    let targets: Vec<(FileId, usize)> = (0..8).map(|i| (f, i)).collect();
    let r = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    let t = r.iter().map(|&(e, _)| e).max().unwrap();
    // Kill a shard's rank. The client keeps resolving placement from its
    // cache: the same batch re-fetches without a single manager
    // round-trip, dead rank or not.
    store.set_manager_alive(1, false, t);
    let rpcs = stats.get("store.mgr_rpcs");
    let hits = stats.get("store.loc_cache_hits");
    let r = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    let t = r.iter().map(|&(e, _)| e).max().unwrap();
    assert_eq!(
        stats.get("store.mgr_rpcs"),
        rpcs,
        "no RPC on the cached hot path"
    );
    assert_eq!(stats.get("store.loc_cache_hits"), hits + 8);
    // The cold reboot bumps the epoch, which drops the cache, and the
    // re-resolution goes back to the (now live) shards.
    let epoch = store.manager().placement_epoch();
    store.set_manager_alive(1, true, t);
    assert!(store.manager().placement_epoch() > epoch);
    let inv = stats.get("store.loc_cache_invalidations");
    let r = store
        .fetch_chunks(t, client, &targets, Some(&cache))
        .unwrap();
    assert!(r.iter().all(|(_, p)| matches!(p, ChunkPayload::Data(_))));
    assert_eq!(stats.get("store.loc_cache_invalidations"), inv + 1);
    assert!(
        stats.get("store.mgr_rpcs") > rpcs,
        "the epoch bump forces re-resolution"
    );
}

#[test]
fn shard_down_retry_waits_out_a_scheduled_recovery() {
    let (store, _) = store_sharded(2, 2);
    let client = 3;
    let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
    let mut t = store
        .fallocate(
            t,
            client,
            f,
            8 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let page = vec![6u8; 4096];
    for idx in 0..8 {
        t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
    }
    let slot = (0..8)
        .find(|&i| store.shard_of_slot(f, i) == Some(1))
        .expect("shard 1 owns a slot");
    store.set_manager_alive(1, false, t);
    store.attach_faults(
        faults::FaultPlanBuilder::new(7)
            .mgr_recover(t + RETRY_BACKOFF, 1)
            .build(),
    );
    let epoch = store.manager().placement_epoch();
    let (t2, payload) = store.fetch_chunk(t, client, f, slot).unwrap();
    assert!(matches!(payload, ChunkPayload::Data(_)));
    assert!(t2 >= t + RETRY_BACKOFF, "the read waited out the outage");
    assert!(!store.manager_rank_down(1));
    assert_eq!(
        store.manager().placement_epoch(),
        epoch + 1,
        "recovery bumped the epoch once"
    );
}

#[test]
fn wear_reports_cover_benefactors() {
    let (store, _) = store();
    let f = make_file(&store, "/m", CHUNK);
    let page = vec![1u8; 4096];
    store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    let wear = store.wear_reports();
    assert_eq!(wear.len(), 2);
    let total: u64 = wear.iter().map(|(_, w)| w.bytes_written).sum();
    assert_eq!(total, 4096);
}

// ----- erasure-coded redundancy tier (DESIGN.md §15) --------------------

fn make_file_parity(
    store: &AggregateStore,
    node: usize,
    name: &str,
    size: u64,
    k: usize,
    m: usize,
) -> FileId {
    let (t, f) = store.create_file(VTime::ZERO, node, name).unwrap();
    store
        .fallocate(
            t,
            node,
            f,
            size,
            StripeSpec::all().with_parity(k, m),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    f
}

fn pattern(tag: u8) -> Vec<u8> {
    (0..CHUNK as usize)
        .map(|i| (i as u8).wrapping_mul(31) ^ tag)
        .collect()
}

#[test]
fn parity_write_materializes_parity_and_reads_back() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x11), pattern(0x22));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    // Both data members plus the parity member are materialized, on
    // three distinct benefactors.
    let (c0, c1) = (chunk_of(&store, f, 0), chunk_of(&store, f, 1));
    let mgr = store.manager();
    let pc = match mgr.file(f).unwrap().parity_slot(0, 0) {
        Slot::Chunk(c) => c,
        _ => panic!("parity not materialized"),
    };
    let mut homes = vec![
        mgr.chunk_home(c0).unwrap(),
        mgr.chunk_home(c1).unwrap(),
        mgr.chunk_home(pc).unwrap(),
    ];
    homes.sort();
    homes.dedup();
    assert_eq!(homes.len(), 3, "group members on distinct benefactors");
    // Stored parity is the RS encode of the data members.
    let code = RsCode::new(2, 1);
    let mut want = vec![0u8; CHUNK as usize];
    code.encode_parity(0, &[&a, &b], &mut want);
    let home = mgr.chunk_home(pc).unwrap();
    assert_eq!(mgr.benefactor(home).peek_chunk(pc).unwrap(), &want[..]);
    drop(mgr);
    assert_eq!(stats.get("store.parity_encodes"), 2);
    assert_eq!(stats.get("store.parity_bytes"), 2 * CHUNK);
    // Reads are undegraded and roundtrip.
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&a)));
}

#[test]
fn parity_updates_are_o_dirty_not_full_group() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x31), pattern(0x42));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    let before = stats.get("store.parity_bytes");
    // One 4 KiB page: the parity member absorbs a 4 KiB delta, not a
    // full-chunk re-encode.
    let page = vec![0x5Au8; 4096];
    t = store
        .write_pages(t, client, f, 0, &[(8192, &page)])
        .unwrap();
    assert_eq!(stats.get("store.parity_bytes") - before, 4096);
    // And the parity still decodes: read member 0 degraded.
    store.set_benefactor_alive(BenefactorId(0), false);
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    let mut want = a;
    want[8192..8192 + 4096].copy_from_slice(&page);
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&want)));
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
}

#[test]
fn degraded_read_reconstructs_after_crash_with_zero_wrong_bytes() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x07), pattern(0x70));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    store.set_benefactor_alive(BenefactorId(0), false);
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(
        payload,
        ChunkPayload::Data(ChunkBuf::from_bytes(&a)),
        "reconstructed bytes are exactly the lost member"
    );
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
    assert_eq!(stats.get("store.failovers"), 1);
    assert_eq!(stats.get("store.degraded_reads"), 1);
}

#[test]
fn losing_more_than_m_members_is_a_deterministic_error() {
    let (store, _) = store_n(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x01), pattern(0x02));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    // RS(2,1) tolerates one loss; kill two members' homes.
    store.set_benefactor_alive(BenefactorId(0), false);
    store.set_benefactor_alive(BenefactorId(1), false);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert_eq!(
        err,
        StoreError::InsufficientSurvivors {
            file: f,
            group: 0,
            have: 1,
            need: 2
        }
    );
    // Identical on retry: deterministic, never silent.
    assert_eq!(store.fetch_chunk(t, client, f, 0).unwrap_err(), err);
}

/// RS(2, 1) file with both members written, linked into a checkpoint
/// which is then deleted: the scenario of ROADMAP item 1a.
fn deleted_checkpoint_of_an_rs_file(store: &AggregateStore, client: usize) -> (VTime, FileId) {
    let f = make_file_parity(store, client, "/m", 2 * CHUNK, 2, 1);
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &pattern(0x11))])
        .unwrap();
    t = store
        .write_pages(t, client, f, 1, &[(0, &pattern(0x22))])
        .unwrap();
    let (t2, ckpt) = store.create_file(t, client, "/ckpt").unwrap();
    t = store.link_file(t2, client, ckpt, f).unwrap();
    (store.delete(t, client, ckpt).unwrap(), f)
}

#[test]
fn deleting_a_checkpoint_leaves_the_live_file_reconstructible() {
    // The checkpoint only links the chunks; the parity group is the RS
    // file's, and one lost home (≤ m) must still decode.
    let (store, stats) = store_n(3);
    let client = 4;
    let (t, f) = deleted_checkpoint_of_an_rs_file(&store, client);
    let c = chunk_of(&store, f, 0);
    let home = store.manager().chunk_home(c).unwrap();
    store.set_benefactor_alive(home, false);
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert!(payload.into_buf(store.config()) == pattern(0x11)[..]);
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
}

#[test]
fn deleting_a_checkpoint_journals_no_unlink_of_the_live_files_groups() {
    // The journal-replay twin: a standby that takes over after the delete
    // replays a log in which the RS file's members are still grouped.
    let (store, _) = store_ha(true);
    let ssd = Ssd::new("b2.ssd", INTEL_X25E, &StatsRegistry::new());
    store.add_benefactor(Benefactor::new(3, ssd, mib(64), CHUNK));
    let (_, f) = deleted_checkpoint_of_an_rs_file(&store, 3);
    let mgr = store.manager();
    let image = mgr.unload_journal(0);
    let (_, replayed, _) = crate::journal::load_image(&image, CHUNK).expect("image decodes");
    replayed.assert_consistent();
    assert_eq!(replayed.state, *mgr.state(), "replay is the live state");
    for (member, idx) in [0usize, 1].into_iter().enumerate() {
        let Slot::Chunk(c) = mgr.file(f).unwrap().slots[idx] else {
            panic!("slot {idx} not materialized");
        };
        let group = 0;
        assert_eq!(
            replayed.state.ns.groups.get(&c).copied(),
            Some(GroupRef {
                file: f,
                group,
                member
            }),
            "member {member} lost its group in the journal"
        );
        assert!(mgr.group_of_chunk(c).is_some());
    }
}

/// A restart file as `ssdcheckpoint` builds one (ROADMAP item 1b): a
/// one-chunk RS(2, 1) image with a four-chunk RS(2, 1) variable linked
/// onto its end, under `verify_reads` on four benefactors. Returns when
/// the link landed, the image and the variable.
fn restart_file_linked_onto_an_rs_image(store: &AggregateStore) -> (VTime, FileId, FileId) {
    let client = 5;
    let image = make_file_parity(store, client, "/image", CHUNK, 2, 1);
    let var = make_file_parity(store, client, "/var", 4 * CHUNK, 2, 1);
    let mut t = store
        .write_pages(VTime::ZERO, client, image, 0, &[(0, &pattern(0x1B))])
        .unwrap();
    for idx in 0..4 {
        let data = pattern(0x20 + idx as u8);
        t = store
            .write_pages(t, client, var, idx, &[(0, &data)])
            .unwrap();
    }
    (store.link_file(t, client, image, var).unwrap(), image, var)
}

#[test]
fn linked_slots_are_not_members_of_the_files_parity_groups() {
    let (store, _) = store_verify(4);
    let (t, image, var) = restart_file_linked_onto_an_rs_image(&store);
    // The sweep walks the image's one group and finds nothing to do.
    let (_, report) = store.repair_parity_groups(t);
    assert_eq!(report, RepairReport::default());
    let mgr = store.manager();
    let meta = mgr.file(image).unwrap();
    assert_eq!(meta.slots.len(), 5);
    assert_eq!(meta.parity_groups(), 1, "the image's own group only");
    assert_eq!(meta.group_data_slots(0), 0..1);
    // Each linked chunk keeps its own file's group.
    for idx in 1..5 {
        let Slot::Chunk(c) = meta.slots[idx] else {
            panic!("slot {idx} is linked");
        };
        assert_eq!(mgr.group_of_chunk(c).map(|g| g.file), Some(var));
    }
    drop(mgr);

    // A group dies with the file that owns it, in either delete order.
    // The image first: the linked chunks stay in `/var`'s group.
    let (store, _) = store_verify(4);
    let (t, image, var) = restart_file_linked_onto_an_rs_image(&store);
    let linked: Vec<ChunkId> = (1..5).map(|idx| chunk_of(&store, image, idx)).collect();
    store.delete(t, 5, image).unwrap();
    for (at, &c) in linked.iter().enumerate() {
        let (group, member) = (at / 2, at % 2);
        let want = GroupRef {
            file: var,
            group,
            member,
        };
        assert_eq!(
            store.manager().group_of_chunk(c),
            Some(want),
            "var slot {at}"
        );
    }
    // `/var` first, while `/image` still links its chunks: their groups
    // go with `/var`, and the chunks stay readable through `/image`.
    let (store, _) = store_verify(4);
    let (t, image, var) = restart_file_linked_onto_an_rs_image(&store);
    let mut t = store.delete(t, 5, var).unwrap();
    for idx in 1..5 {
        let c = chunk_of(&store, image, idx);
        assert_eq!(store.manager().group_of_chunk(c), None, "image slot {idx}");
        let (done, payload) = store.fetch_chunk(t, 5, image, idx).unwrap();
        assert!(payload.into_buf(store.config()) == pattern(0x1F + idx as u8)[..]);
        t = done;
    }
}

#[test]
fn a_lost_image_chunk_decodes_against_its_own_group_not_the_linked_slots() {
    let (store, stats) = store_verify(4);
    let (t, image, _) = restart_file_linked_onto_an_rs_image(&store);
    let c = chunk_of(&store, image, 0);
    let home = store.manager().chunk_home(c).unwrap();
    store.set_benefactor_alive(home, false);
    let (_, payload) = store.fetch_chunk(t, 5, image, 0).unwrap();
    assert!(payload.into_buf(store.config()) == pattern(0x1B)[..]);
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
}

#[test]
fn batched_parity_group_write_ships_fewer_bytes_than_replicas() {
    let full = |spec: StripeSpec| -> u64 {
        let (store, stats) = store_n(6);
        let client = 7;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let t = store
            .fallocate(t, client, f, 4 * CHUNK, spec, PlacementPolicy::RoundRobin)
            .unwrap();
        let data = pattern(0x55);
        let updates: Vec<(u64, &[u8])> = vec![(0, &data)];
        let batch: Vec<BatchWrite<'_>> = (0..4)
            .map(|idx| BatchWrite {
                file: f,
                idx,
                updates: &updates,
            })
            .collect();
        store.write_pages_batch(t, client, &batch).unwrap();
        stats.get("store.bytes_from_clients")
    };
    let rs = full(StripeSpec::all().with_parity(4, 2));
    let rep = full(StripeSpec::all().with_replicas(2));
    // One full RS(4,2) group: 4 data + 2 parity chunks on the wire
    // versus 2 × 4 replica copies — same one-loss-and-more tolerance,
    // 25% fewer bytes.
    assert_eq!(rs, 6 * CHUNK);
    assert_eq!(rep, 8 * CHUNK);
}

/// A call that fails at one entry has still landed the entries before
/// it, digests recorded: their parity must leave with them, not be
/// skipped on the way to the error — a retry's deltas for those entries
/// are new ⊕ new = 0, so the group would otherwise stay behind its data
/// with nothing flagged stale, and the next loss ≤ m would read corrupt.
#[test]
fn a_failed_batch_ships_the_parity_of_the_entries_that_landed() {
    let (store, stats) = store_n(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x3C), pattern(0xC3));
    let ua: [(u64, &[u8]); 1] = [(0, &a)];
    let ub: [(u64, &[u8]); 1] = [(0, &b)];
    let entry = |idx, updates| BatchWrite {
        file: f,
        idx,
        updates,
    };
    let batch = [entry(0, &ua[..]), entry(1, &ub[..])];
    // Member 1's home is down: member 0 lands, then the call fails.
    store.set_benefactor_alive(BenefactorId(1), false);
    let err = store
        .write_pages_batch(VTime::ZERO, client, &batch)
        .unwrap_err();
    assert_eq!(err, StoreError::BenefactorDown(BenefactorId(1)));
    assert_eq!(chunk_of(&store, f, 0), ChunkId(0), "member 0 landed");
    // The home returns and the caller retries the call as it stands (what
    // a mount does with pages a failed flush left dirty).
    store.set_benefactor_alive(BenefactorId(1), true);
    let t = VTime::from_millis(10);
    let ends = store.write_pages_batch(t, client, &batch).unwrap();
    let t = ends.into_iter().fold(t, VTime::max);
    let (t, report) = store.repair_parity_groups(t);
    assert_eq!(report.chunks_repaired, 0, "nothing was left to repair");
    // One loss (≤ m) later, the group still yields the acknowledged bytes.
    store.set_benefactor_alive(BenefactorId(0), false);
    let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&a)));
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
}

#[test]
fn batched_parity_merge_of_meeting_runs_equals_a_full_encode() {
    // One batch dirties a group four ways at once: the same offsets in
    // two members, touching runs of two members, partially overlapping
    // runs, and a run nobody else touches (shipped as contributed).
    let (store, stats) = store_verify(6);
    let client = 7;
    let f = make_file_parity(&store, client, "/m", 4 * CHUNK, 4, 2);
    let mut want: Vec<Vec<u8>> = (0..4u8).map(|j| pattern(0x10 + j)).collect();
    let write = |t: VTime, runs: &[Vec<(u64, Vec<u8>)>]| -> VTime {
        let views: Vec<Vec<(u64, &[u8])>> = runs
            .iter()
            .map(|rs| rs.iter().map(|(off, d)| (*off, &d[..])).collect())
            .collect();
        let batch: Vec<BatchWrite<'_>> = views
            .iter()
            .enumerate()
            .filter(|(_, updates)| !updates.is_empty())
            .map(|(idx, updates)| BatchWrite {
                file: f,
                idx,
                updates,
            })
            .collect();
        let ends = store.write_pages_batch(t, client, &batch).unwrap();
        ends.into_iter().max().unwrap()
    };
    let assert_parity_is_the_encode = |want: &[Vec<u8>]| {
        let code = RsCode::new(4, 2);
        let data: Vec<&[u8]> = want.iter().map(|d| &d[..]).collect();
        let mgr = store.manager();
        for p in 0..2 {
            let Slot::Chunk(pc) = mgr.file(f).unwrap().parity_slot(0, p) else {
                panic!("parity {p} not materialized");
            };
            let mut encoded = vec![0u8; CHUNK as usize];
            code.encode_parity(p, &data, &mut encoded);
            let home = mgr.chunk_home(pc).unwrap();
            let stored = mgr.benefactor(home).peek_chunk(pc).unwrap();
            assert!(stored == &encoded[..], "parity {p} is not the encode");
        }
    };
    let fill = |len: usize, tag: u8| -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(7) ^ tag).collect()
    };
    let whole: Vec<Vec<(u64, Vec<u8>)>> = want.iter().map(|d| vec![(0, d.clone())]).collect();
    let mut t = write(VTime::ZERO, &whole);
    assert_parity_is_the_encode(&want);
    let (encodes, bytes) = (
        stats.get("store.parity_encodes"),
        stats.get("store.parity_bytes"),
    );
    let dirty = vec![
        // member 0: meets member 1 at [0, 4096), touches it at 12288,
        // half-overlaps member 2 from 20000
        vec![
            (0, fill(4096, 0xA0)),
            (8192, fill(4096, 0xA1)),
            (20_000, fill(3000, 0xA2)),
        ],
        vec![(0, fill(4096, 0xB0)), (12_288, fill(4096, 0xB1))],
        vec![(21_000, fill(5000, 0xC0))],
        // member 3: alone at its offsets
        vec![(100_000, fill(4096, 0xD0))],
    ];
    for (member, runs) in dirty.iter().enumerate() {
        for (off, d) in runs {
            want[member][*off as usize..*off as usize + d.len()].copy_from_slice(d);
        }
    }
    t = write(t, &dirty);
    assert_parity_is_the_encode(&want);
    assert_eq!(
        store.count_corrupt_copies(),
        0,
        "every digest was spliced right"
    );
    // One ship per parity member for the whole batch, carrying the four
    // coalesced intervals [0, 4096), [8192, 16384), [20000, 26000) and
    // [100000, 104096) — the volumes the chunk-sized accumulators shipped.
    assert_eq!(stats.get("store.parity_encodes") - encodes, 2);
    assert_eq!(
        stats.get("store.parity_bytes") - bytes,
        2 * (4096 + 8192 + 6000 + 4096)
    );

    // A parity update torn on its home: the digest, spliced from the
    // intended delta, disagrees with the half that landed, and scrub
    // rebuilds the member from the data.
    let Slot::Chunk(pc) = store.manager().file(f).unwrap().parity_slot(0, 0) else {
        panic!("parity 0 not materialized");
    };
    let phome = store.manager().chunk_home(pc).unwrap();
    store.manager().benefactor_mut(phome).arm_torn_write();
    let torn = vec![vec![(40_000, fill(8192, 0xE0))], vec![], vec![], vec![]];
    want[0][40_000..48_192].copy_from_slice(&torn[0][0].1);
    t = write(t, &torn);
    assert!(!copies::is_clean(&store.manager(), pc, phome));
    assert_eq!(store.count_corrupt_copies(), 1, "only the armed home tore");
    store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(1),
            chunks_per_pass: 16,
        },
        t + VTime::from_micros(1),
    );
    store.poll_faults(t + VTime::from_millis(1));
    assert!(stats.get("store.parity_repairs") > 0, "scrub rebuilt it");
    assert_eq!(store.count_corrupt_copies(), 0);
    assert_parity_is_the_encode(&want);
}

#[test]
fn parity_knobs_off_is_bit_identical_to_plain_striping() {
    // The same workload through `with_parity(4, 0)` and through the
    // default spec must produce identical virtual times and register
    // no parity counters: m = 0 *is* plain striping.
    let run = |spec: StripeSpec| -> (VTime, bool) {
        let (store, stats) = store_n(4);
        let client = 5;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let mut t = store
            .fallocate(t, client, f, 6 * CHUNK, spec, PlacementPolicy::RoundRobin)
            .unwrap();
        let data: Vec<u8> = (0..3 * CHUNK as usize + 999)
            .map(|i| (i % 253) as u8)
            .collect();
        t = store.write_span(t, client, f, 512, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        t = store.read_span(t, client, f, 512, &mut buf).unwrap();
        assert_eq!(buf, data);
        let keys = stats.snapshot().values.contains_key("store.parity_encodes");
        (t, keys)
    };
    let (t_plain, keys_plain) = run(StripeSpec::all());
    let (t_m0, keys_m0) = run(StripeSpec::all().with_parity(4, 0));
    assert_eq!(t_plain, t_m0, "m = 0 is timing-identical");
    assert!(!keys_plain && !keys_m0, "no parity counters registered");
}

#[test]
fn scrub_rebuilds_corrupt_sole_copy_group_member_in_place() {
    let (store, stats) = store_verify(3);
    let client = 4;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x0F), pattern(0xF0));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    // Rot the sole copy of data member 0 (benefactor 0 holds it).
    store.attach_faults(
        faults::FaultPlanBuilder::new(21)
            .bit_rot(t + VTime::from_micros(1), 0, 10_000)
            .build(),
    );
    store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(1),
            chunks_per_pass: 16,
        },
        t + VTime::from_micros(2),
    );
    store.poll_faults(t + VTime::from_millis(1));
    assert!(stats.get("store.parity_repairs") > 0, "group rebuild ran");
    assert_eq!(store.count_corrupt_copies(), 0, "no rot left behind");
    let (_, payload) = store
        .fetch_chunk(t + VTime::from_millis(2), client, f, 0)
        .unwrap();
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&a)));
}

#[test]
fn repair_parity_groups_rehomes_dead_members() {
    let (store, stats) = store_n(4);
    let client = 5;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x21), pattern(0x12));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    let c0 = chunk_of(&store, f, 0);
    assert_eq!(store.manager().chunk_homes(c0).unwrap(), &[BenefactorId(0)]);
    store.set_benefactor_alive(BenefactorId(0), false);
    let (t2, report) = store.repair_parity_groups(t);
    assert_eq!(report.chunks_repaired, 1);
    assert_eq!(report.chunks_unrepairable, 0);
    assert!(t2 > t, "repair took simulated time");
    // The lost member now lives on the only benefactor outside the
    // group (b3) — the placement invariant still holds.
    assert_eq!(store.manager().chunk_homes(c0).unwrap(), &[BenefactorId(3)]);
    assert_eq!(stats.get("store.parity_repairs"), 1);
    // And it reads back cleanly (no degraded path) with b0 still dead.
    let before = stats.get("store.degraded_reads");
    let (_, payload) = store.fetch_chunk(t2, client, f, 0).unwrap();
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&a)));
    assert_eq!(stats.get("store.degraded_reads"), before);
}

#[test]
fn stale_parity_is_flagged_and_reencoded_by_repair() {
    let (store, stats) = store_n(4);
    let client = 5;
    let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
    let (a, b) = (pattern(0x61), pattern(0x16));
    let mut t = store
        .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
        .unwrap();
    t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
    // Kill the parity home; the next data write can't ship its delta,
    // so the parity member goes stale rather than silently rotting.
    let pc = match store.manager().file(f).unwrap().parity_slot(0, 0) {
        Slot::Chunk(c) => c,
        _ => panic!("parity not materialized"),
    };
    let phome = store.manager().chunk_home(pc).unwrap();
    store.set_benefactor_alive(phome, false);
    let page = vec![0x77u8; 4096];
    t = store.write_pages(t, client, f, 0, &[(0, &page)]).unwrap();
    assert!(store.manager().file(f).unwrap().parity_is_stale(0, 0));
    // Stale parity is not a survivor: lose a data member too and the
    // group is short.
    store.set_benefactor_alive(BenefactorId(0), false);
    let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
    assert!(matches!(err, StoreError::InsufficientSurvivors { .. }));
    store.set_benefactor_alive(BenefactorId(0), true);
    // The repair sweep re-homes and re-encodes the parity member from
    // the (live) data members, clearing the stale flag.
    let (t3, report) = store.repair_parity_groups(t);
    assert_eq!(report.chunks_repaired, 1);
    let mgr = store.manager();
    let meta = mgr.file(f).unwrap();
    assert!(!meta.parity_is_stale(0, 0));
    let pc2 = match meta.parity_slot(0, 0) {
        Slot::Chunk(c) => c,
        _ => panic!("parity gone"),
    };
    let home = mgr.chunk_home(pc2).unwrap();
    assert!(mgr.benefactor(home).is_alive());
    let mut want_a = a.clone();
    want_a[..4096].copy_from_slice(&page);
    let code = RsCode::new(2, 1);
    let mut want = vec![0u8; CHUNK as usize];
    code.encode_parity(0, &[&want_a, &b], &mut want);
    assert_eq!(
        mgr.benefactor(home).peek_chunk(pc2).unwrap(),
        &want[..],
        "re-encoded parity reflects the post-outage data"
    );
    drop(mgr);
    assert_eq!(stats.get("store.parity_repairs"), 1);
    // With parity healthy again the degraded read works once more.
    store.set_benefactor_alive(BenefactorId(0), false);
    let (_, payload) = store.fetch_chunk(t3, client, f, 0).unwrap();
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&want_a)));
}

// ----- manager HA (DESIGN.md §16) ----------------------------------------

/// Like `store()` but with HA knobs: a fatter retry window (the
/// default 2 × 5 ms cannot outlast the 25 ms failover timeout) and
/// `ha_standby` as given.
fn store_ha(standby: bool) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(4, &stats);
    let cfg = StoreConfig {
        ha_standby: standby,
        fetch_retries: 12,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, net, &stats);
    for (i, node) in [1usize, 2].iter().enumerate() {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
    }
    (store, stats)
}

#[test]
fn ha_knobs_off_changes_nothing() {
    // Same workload, journaling + standby on vs off, no faults:
    // identical virtual times, and the knobs-off run registers none
    // of the HA counters (committed bench expectations must not grow
    // keys). Mirrors `integrity_knobs_off_changes_nothing`.
    let run = |ha: bool| -> (VTime, bool) {
        let stats = StatsRegistry::new();
        let net = Network::new(4, &stats);
        let cfg = StoreConfig {
            ha_standby: ha,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        let f = make_file(&store, "/m", 4 * CHUNK);
        let data: Vec<u8> = (0..2 * CHUNK as usize + 777)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut t = store.write_span(VTime::ZERO, 3, f, 100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        t = store.read_span(t, 3, f, 100, &mut buf).unwrap();
        assert_eq!(buf, data);
        t = store.delete(t, 3, f).unwrap();
        let has_keys = stats
            .snapshot()
            .values
            .contains_key("store.journal_records");
        (t, has_keys)
    };
    let (t_off, keys_off) = run(false);
    let (t_on, keys_on) = run(true);
    assert_eq!(t_off, t_on, "journaling is timing-neutral");
    assert!(!keys_off, "knobs off: no HA counters registered");
    assert!(keys_on, "HA on: journal/failover counters present");
}

#[test]
fn manager_crash_without_standby_waits_for_reboot() {
    let (store, _) = store_ha(false);
    let f = make_file(&store, "/m", 2 * CHUNK);
    let page = vec![9u8; 4096];
    let t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
        .unwrap();
    let crash = t + VTime::from_micros(1);
    let reboot = crash + VTime::from_millis(20);
    store.attach_faults(
        faults::FaultPlanBuilder::new(7)
            .mgr_crash(crash, 0)
            .mgr_recover(reboot, 0)
            .build(),
    );
    let epoch_before = store.manager().placement_epoch();
    // The fetch lands mid-outage: it sits in the retry/backoff loop
    // until the scheduled reboot, then completes.
    let (t2, payload) = store.fetch_chunk(crash, 3, f, 0).unwrap();
    assert!(t2 >= reboot, "served only after the reboot");
    match payload {
        ChunkPayload::Data(d) => assert_eq!(d[0], 9),
        _ => panic!("expected data"),
    }
    assert!(!store.manager_rank_down(0));
    // A cold reboot is a placement-epoch event: caches must re-fetch.
    assert!(store.manager().placement_epoch() > epoch_before);
    // A second crash with no recovery scheduled exhausts the window.
    let t3 = t2 + VTime::from_secs(1);
    store.attach_faults(faults::FaultPlanBuilder::new(8).mgr_crash(t3, 0).build());
    let err = store.fetch_chunk(t3, 3, f, 0).unwrap_err();
    assert_eq!(err, StoreError::ManagerDown(0));
}

#[test]
fn standby_takeover_replays_journal_and_loses_nothing() {
    let (store, stats) = store_ha(true);
    let f = make_file(&store, "/m", 2 * CHUNK);
    let data = pattern(0x5A);
    let mut t = store
        .write_pages(VTime::ZERO, 3, f, 0, &[(0, &data)])
        .unwrap();
    t = store.write_pages(t, 3, f, 1, &[(0, &data)]).unwrap();
    assert!(stats.get("store.journal_records") > 0, "mutations journal");
    let crash = t + VTime::from_micros(1);
    store.attach_faults(faults::FaultPlanBuilder::new(9).mgr_crash(crash, 0).build());
    let epoch_before = store.manager().placement_epoch();
    // No reboot is scheduled: only the standby takeover can serve
    // this — journal replay, verification, epoch bump.
    let (t2, payload) = store.fetch_chunk(crash, 3, f, 0).unwrap();
    assert!(
        t2 >= crash + FAILOVER_TIMEOUT,
        "takeover waits out the crash-detection window"
    );
    assert_eq!(payload, ChunkPayload::Data(ChunkBuf::from_bytes(&data)));
    assert_eq!(stats.get("store.mgr_failovers"), 1);
    assert_eq!(stats.get("store.journal_replays"), 1);
    assert!(
        stats.get("store.mgr_failover_us") >= 25_000,
        "time-to-failover includes the detection window"
    );
    assert!(store.manager().placement_epoch() > epoch_before);
    // Acked writes survived: both chunks read back post-takeover.
    let (_, p1) = store.fetch_chunk(t2, 3, f, 1).unwrap();
    assert_eq!(p1, ChunkPayload::Data(ChunkBuf::from_bytes(&data)));
}

/// A fault plan that names a manager rank the store does not have is
/// refused, not grown into a rank that serves nothing.
#[test]
#[should_panic(expected = "names manager rank 2, but the store has 2 rank(s)")]
fn fault_plan_naming_a_phantom_manager_rank_is_refused() {
    let (store, _) = store_sharded(2, 2);
    store.attach_faults(
        faults::FaultPlanBuilder::new(12)
            .mgr_crash(VTime::from_millis(1), 2)
            .build(),
    );
}

/// One ring: a journal lane is its rank's keyspace, so every chunk-keyed
/// record in lane `k` names a chunk whose owner in the installed ring is
/// `k` — whatever seed the installation chose.
#[test]
fn journal_lanes_follow_the_installed_ring() {
    let stats = StatsRegistry::new();
    let cfg = StoreConfig {
        ha_standby: true,
        manager_shards: 2,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, Network::new(4, &stats), &stats);
    for (i, node) in [1usize, 2].iter().enumerate() {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
    }
    store.install_shards(&[1, 2], 77);
    let f = make_file(&store, "/m", 8 * CHUNK);
    let data = pattern(0x5C);
    let mut t = VTime::ZERO;
    for idx in 0..8 {
        t = store.write_pages(t, 3, f, idx, &[(0, &data)]).unwrap();
    }
    let ring = crate::shardmgr::HashRing::new(2, crate::shardmgr::DEFAULT_VNODES, 77);
    let mgr = store.manager();
    let journal = mgr.journal();
    let mut checked = 0;
    for k in 0..journal.lanes() {
        for r in journal.lane(k).iter() {
            let Some(chunk) = r.chunk() else {
                assert_eq!(k, 0, "{r:?}: the namespace is lane 0's");
                continue;
            };
            assert_eq!(
                ring.owner_of_chunk(chunk),
                k,
                "{chunk} journaled in lane {k}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "every write journals its chunk");
}

/// A standby takeover moves the crashed rank to its standby's node and
/// revokes every placement a client cached from it, by bumping the epoch.
#[test]
fn sharded_standby_promotion_repoints_the_shard_and_bumps_the_epoch() {
    let stats = StatsRegistry::new();
    let cfg = StoreConfig {
        ha_standby: true,
        manager_shards: 2,
        fetch_retries: 12,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, Network::new(4, &stats), &stats);
    for (i, node) in [1usize, 2].iter().enumerate() {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
    }
    store.install_shards(&[1, 2], 77);
    store.set_standby_nodes(&[2, 1]);
    let f = make_file(&store, "/m", 4 * CHUNK);
    let data = pattern(0x3C);
    let mut t = VTime::ZERO;
    for idx in 0..4 {
        t = store.write_pages(t, 3, f, idx, &[(0, &data)]).unwrap();
    }
    assert_eq!(store.shard_node(0), Some(1));
    let crash = t + VTime::from_micros(1);
    store.attach_faults(
        faults::FaultPlanBuilder::new(11)
            .mgr_crash(crash, 0)
            .build(),
    );
    let epoch_before = store.manager().placement_epoch();
    // Every acked write reads back across the outage…
    for idx in 0..4 {
        let (_, p) = store.fetch_chunk(crash, 3, f, idx).unwrap();
        assert_eq!(p, ChunkPayload::Data(ChunkBuf::from_bytes(&data)));
    }
    // …and a namespace op (always rank 0, the root shard) guarantees
    // the crashed rank was probed even if slot hashing dodged it.
    let (_, found) = store.open(crash, 3, "/m").unwrap();
    assert_eq!(found, Some(f));
    assert_eq!(stats.get("store.mgr_failovers"), 1);
    // The standby's node now serves rank 0…
    assert_eq!(store.shard_node(0), Some(2));
    // …and no client may serve a pre-crash cached placement.
    assert!(store.manager().placement_epoch() > epoch_before);
}
