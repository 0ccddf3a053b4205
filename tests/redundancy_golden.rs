//! Golden cross-commit pin of the redundancy and fault paths.
//!
//! `datapath_golden` runs no fault and the benchmark workloads run neither
//! scrub nor a repair sweep, so this file pins what they leave open: five
//! store-level seeded scenarios over the public `chunkstore` API, with a
//! tracer attached to the store, the network and every SSD —
//!
//! * `replicas_crash_repair_recover` — `replicas = 2`: benefactor crash →
//!   degraded serial and batched reads → `repair_under_replicated` →
//!   recovery + reconcile;
//! * `rs_reconstruct_stale_parity_repair` — RS(4,2) + `verify_reads`: two
//!   crashes → reconstructing reads, serial and batched writes that mark
//!   parity stale → `repair_parity_groups` through all three of its fixes
//!   (re-home, rewrite in place, materialize);
//! * `scrub_replicated_and_sole_copy` — the scrub daemon over bit rot in a
//!   replicated file and in a sole-copy parity-group member;
//! * `ha_sharded_takeover` / `ha_serial_takeover` — `ha_standby` with two
//!   shards and with the serial manager: `ManagerCrash` → standby takeover
//!   → reads and writes, then a crash rebooted cold before the standby
//!   would have taken over.
//!
//! Each asserts every returned `VTime` in ns, every `RepairReport`, the
//! full counter snapshot and an FNV-1a hash of the span stream `(layer,
//! name, start, end, args)` followed by the instant stream `(layer, name,
//! t)`. The constants were recorded at the commit before `store.rs` was
//! carved into `store/` (PR 14); a "no behaviour change" refactor leaves
//! them unedited, and a failing run prints the new values.
//!
//! Re-recorded once since, when the store's per-chunk and batched calls
//! became one implementation (DESIGN.md §15, "the parity moment"). By span
//! stream only — every returned time and report unedited: `REPLICAS`,
//! `HA_SHARDED`, `HA_SERIAL` (a one-entry call emits no batch span and is
//! not a `store.batched_*` call: 3 -> 2 writes on the two HA ones; entry
//! spans carry `file`/`idx` and open at the resolution reply). By the
//! parity moment — a group's merged delta leaves when its last entry is
//! issued instead of after every entry has landed: `RS` (the four-entry
//! fill ends at 8 294 624 instead of 14 155 952 ns, its second batch
//! 1 667 024 ns earlier, and everything downstream by those amounts) and
//! `SCRUB` (its one RS batch, the same 1 667 024 ns); no report and no
//! counter of either moved.

use chunkstore::{
    AggregateStore, BatchWrite, Benefactor, BenefactorId, ChunkPayload, FileId, LocationCache,
    PlacementPolicy, RepairReport, ScrubConfig, Slot, StoreConfig, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use faults::FaultPlanBuilder;
use netsim::{NetConfig, Network};
use obs::TraceRecorder;
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const PAGE: usize = 4096;

struct Golden {
    /// Every `VTime` an operation returned, in call order, in ns.
    times_ns: &'static [u64],
    /// `(chunks_repaired, bytes_copied, chunks_unrepairable)` per sweep.
    reports: &'static [(u64, u64, u64)],
    span_hash: u64,
    /// `name=value` per line, in name order (the `Snapshot` map order).
    counters: &'static str,
}

/// What one scenario observed.
#[derive(Default)]
struct Run {
    times_ns: Vec<u64>,
    reports: Vec<(u64, u64, u64)>,
}

impl Run {
    fn at(&mut self, t: VTime) -> VTime {
        self.times_ns.push(t.as_nanos());
        t
    }

    /// Record every entry's completion; the batch is done at their max.
    fn batch(&mut self, ends: impl IntoIterator<Item = VTime>) -> VTime {
        let mut done = VTime::ZERO;
        for e in ends {
            done = done.max(self.at(e));
        }
        done
    }

    fn report(&mut self, (t, r): (VTime, RepairReport)) -> VTime {
        self.reports
            .push((r.chunks_repaired, r.bytes_copied, r.chunks_unrepairable));
        self.at(t)
    }
}

struct Rig {
    store: AggregateStore,
    stats: StatsRegistry,
    trace: TraceRecorder,
    /// The node the scenario's client drives from.
    client: usize,
}

/// Manager on node 0, `n` benefactors on nodes `1..=n`, client on `n + 1`.
fn rig(cfg: StoreConfig, n: usize) -> Rig {
    let stats = StatsRegistry::new();
    let trace = TraceRecorder::enabled(&stats);
    let net = Network::new(n + 2, NetConfig::default(), &stats).with_tracer(trace.clone());
    let store = AggregateStore::new(cfg, net, &stats).with_tracer(trace.clone());
    for i in 0..n {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats).with_tracer(trace.clone());
        store.add_benefactor(Benefactor::new(i + 1, ssd, mib(64), CHUNK));
    }
    Rig {
        store,
        stats,
        trace,
        client: n + 1,
    }
}

fn make_file(
    rig: &Rig,
    run: &mut Run,
    name: &str,
    chunks: u64,
    spec: StripeSpec,
) -> (VTime, FileId) {
    let (t, f) = rig
        .store
        .create_file(VTime::ZERO, rig.client, name)
        .unwrap();
    run.at(t);
    let t = rig
        .store
        .fallocate(
            t,
            rig.client,
            f,
            chunks * CHUNK,
            spec,
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    (run.at(t), f)
}

/// The full-chunk content slot `idx` is first written with.
fn pattern(tag: u8, idx: usize) -> Vec<u8> {
    (0..CHUNK as usize)
        .map(|i| (i as u8).wrapping_mul(31) ^ tag ^ (idx as u8).wrapping_mul(17))
        .collect()
}

fn page(tag: u8) -> Vec<u8> {
    (0..PAGE).map(|i| (i as u8).wrapping_mul(7) ^ tag).collect()
}

fn chunk_of(store: &AggregateStore, f: FileId, idx: usize) -> chunkstore::ChunkId {
    match store.manager().file(f).unwrap().slots[idx] {
        Slot::Chunk(c) => c,
        _ => panic!("slot {idx} not materialized"),
    }
}

/// Serial read of every slot, checked against `oracle` (`None` = hole).
fn read_all_serial(
    rig: &Rig,
    run: &mut Run,
    mut t: VTime,
    f: FileId,
    oracle: &[Option<Vec<u8>>],
) -> VTime {
    for (idx, want) in oracle.iter().enumerate() {
        let (t2, payload) = rig.store.fetch_chunk(t, rig.client, f, idx).unwrap();
        t = run.at(t2);
        check_payload(&payload, want, idx);
    }
    t
}

/// One batched read of every slot, checked against `oracle`.
fn read_all_batched(
    rig: &Rig,
    run: &mut Run,
    t: VTime,
    f: FileId,
    oracle: &[Option<Vec<u8>>],
    cache: &LocationCache,
) -> VTime {
    let targets: Vec<(FileId, usize)> = (0..oracle.len()).map(|i| (f, i)).collect();
    let got = rig
        .store
        .fetch_chunks(t, rig.client, &targets, Some(cache))
        .unwrap();
    for (idx, ((_, payload), want)) in got.iter().zip(oracle).enumerate() {
        check_payload(payload, want, idx);
    }
    run.batch(got.iter().map(|&(e, _)| e))
}

fn check_payload(payload: &ChunkPayload, want: &Option<Vec<u8>>, idx: usize) {
    match (payload, want) {
        (ChunkPayload::Zeros, None) => {}
        (ChunkPayload::Data(d), Some(w)) => assert!(*d == w[..], "slot {idx}: wrong bytes"),
        (ChunkPayload::Data(_), None) => panic!("slot {idx}: data where a hole was expected"),
        (ChunkPayload::Zeros, Some(_)) => panic!("slot {idx}: hole where data was expected"),
    }
}

/// Batched write of `(idx, offset, bytes)` runs, mirrored into `oracle`.
fn write_batch(
    rig: &Rig,
    run: &mut Run,
    t: VTime,
    f: FileId,
    writes: &[(usize, u64, Vec<u8>)],
    oracle: &mut [Option<Vec<u8>>],
) -> VTime {
    let updates: Vec<[(u64, &[u8]); 1]> =
        writes.iter().map(|(_, off, d)| [(*off, &d[..])]).collect();
    let entries: Vec<BatchWrite<'_>> = writes
        .iter()
        .zip(&updates)
        .map(|((idx, _, _), upd)| BatchWrite {
            file: f,
            idx: *idx,
            updates: upd,
        })
        .collect();
    let ends = rig
        .store
        .write_pages_batch(t, rig.client, &entries)
        .unwrap();
    for (idx, off, d) in writes {
        apply(oracle, *idx, *off, d);
    }
    run.batch(ends)
}

fn write_serial(
    rig: &Rig,
    run: &mut Run,
    t: VTime,
    f: FileId,
    (idx, off, data): (usize, u64, &[u8]),
    oracle: &mut [Option<Vec<u8>>],
) -> VTime {
    let t = rig
        .store
        .write_pages(t, rig.client, f, idx, &[(off, data)])
        .unwrap();
    apply(oracle, idx, off, data);
    run.at(t)
}

fn apply(oracle: &mut [Option<Vec<u8>>], idx: usize, off: u64, data: &[u8]) {
    let chunk = oracle[idx].get_or_insert_with(|| vec![0u8; CHUNK as usize]);
    chunk[off as usize..off as usize + data.len()].copy_from_slice(data);
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn check(name: &str, rig: &Rig, run: &Run, want: &Golden) {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for s in rig.trace.spans() {
        fnv1a(&mut hash, s.layer.as_str().as_bytes());
        fnv1a(&mut hash, s.name.as_bytes());
        fnv1a(&mut hash, &s.start.as_nanos().to_le_bytes());
        fnv1a(&mut hash, &s.end.as_nanos().to_le_bytes());
        for (k, v) in &s.args {
            fnv1a(&mut hash, k.as_bytes());
            fnv1a(&mut hash, &v.to_le_bytes());
        }
    }
    for i in rig.trace.instants() {
        fnv1a(&mut hash, i.layer.as_str().as_bytes());
        fnv1a(&mut hash, i.name.as_bytes());
        fnv1a(&mut hash, &i.t.as_nanos().to_le_bytes());
    }
    let counters: String = rig
        .stats
        .snapshot()
        .values
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    let now = format!(
        "times_ns: &{:?},\nreports: &{:?},\nspan_hash: {:#018X},\ncounters:\n{}",
        run.times_ns, run.reports, hash, counters
    );
    assert!(
        run.times_ns == want.times_ns && run.reports == want.reports && hash == want.span_hash,
        "{name}: virtual times / repair reports / span-stream hash moved; now:\n{now}"
    );
    assert_eq!(
        counters.trim(),
        want.counters.trim(),
        "{name}: counter snapshot moved"
    );
}

// ----- (a) replication ------------------------------------------------------

#[test]
fn replicas_crash_repair_recover() {
    let rig = rig(StoreConfig::default(), 4);
    let mut run = Run::default();
    let (t, f) = make_file(
        &rig,
        &mut run,
        "/rep",
        6,
        StripeSpec::all().with_replicas(2),
    );
    let mut oracle: Vec<Option<Vec<u8>>> = vec![None; 6];
    let fill: Vec<(usize, u64, Vec<u8>)> = (0..5).map(|i| (i, 0, pattern(0xA0, i))).collect();
    let t = write_batch(&rig, &mut run, t, f, &fill, &mut oracle);

    // b1 dies mid-run and comes back long after the repair sweep.
    let crash = t + VTime::from_micros(1);
    let revive = crash + VTime::from_secs(2);
    rig.store.attach_faults(
        FaultPlanBuilder::new(0x5EED0A)
            .crash(crash, 1)
            .recover(revive, 1)
            .build(),
    );
    let cache = LocationCache::new(&rig.stats);
    let t = read_all_serial(&rig, &mut run, crash, f, &oracle);
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);
    // Writes during the outage drop the dead copy of the chunks they touch.
    let t = write_serial(&rig, &mut run, t, f, (0, 8192, &page(0x11)), &mut oracle);
    let touch = vec![
        (1, 4096, page(0x12)),
        (4, 0, page(0x13)),
        (5, 0, page(0x14)),
    ];
    let t = write_batch(&rig, &mut run, t, f, &touch, &mut oracle);
    assert!(!rig.store.manager().under_replicated().is_empty());
    let t = run.report(rig.store.repair_under_replicated(t));
    assert!(rig.store.manager().under_replicated().is_empty());
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);

    // Recovery reconciles b1's stale and surplus copies.
    let t = read_all_serial(&rig, &mut run, t.max(revive), f, &oracle);
    assert!(rig.store.manager().benefactor(BenefactorId(1)).is_alive());
    let t = run.report(rig.store.repair_under_replicated(t));
    read_all_batched(&rig, &mut run, t, f, &oracle, &cache);
    check("replicas_crash_repair_recover", &rig, &run, &REPLICAS);
}

// ----- (b) erasure coding ---------------------------------------------------

#[test]
fn rs_reconstruct_stale_parity_repair() {
    let cfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let rig = rig(cfg, 8);
    let mut run = Run::default();
    // Three RS(4,2) groups over 8 benefactors; the third stays unwritten
    // until the outage.
    let (t, f) = make_file(
        &rig,
        &mut run,
        "/rs",
        12,
        StripeSpec::all().with_parity(4, 2),
    );
    let mut oracle: Vec<Option<Vec<u8>>> = vec![None; 12];
    let fill: Vec<(usize, u64, Vec<u8>)> = (0..8).map(|i| (i, 0, pattern(0xB0, i))).collect();
    let t = write_batch(&rig, &mut run, t, f, &fill, &mut oracle);

    // Victims by role, read off the placement: the home of data slot 1
    // (transient) and the benefactor holding group 0's first parity
    // member, a group-1 data member and group 2's parity reservation.
    let (data_victim, parity_victim) = {
        let mgr = rig.store.manager();
        let meta = mgr.file(f).unwrap();
        (meta.home_of_slot(1), meta.parity_home(0, 0))
    };
    assert_eq!(
        rig.store.manager().file(f).unwrap().parity_home(2, 0),
        parity_victim
    );
    let crash = t + VTime::from_micros(1);
    rig.store.attach_faults(
        FaultPlanBuilder::new(0x5EED0B)
            .crash(crash, data_victim.0)
            .crash(crash, parity_victim.0)
            .build(),
    );
    let cache = LocationCache::new(&rig.stats);
    let t = read_all_serial(&rig, &mut run, crash, f, &oracle);
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);

    // Writes whose parity member is dead-homed flag it stale — through
    // the serial ship and through the batch's merged ship — and first
    // writes into group 2 leave its dead-reserved parity unmaterialized.
    let t = write_serial(&rig, &mut run, t, f, (6, 8192, &page(0x21)), &mut oracle);
    let partial = vec![
        (0, 8192, page(0x22)),
        (2, 4096, page(0x23)),
        (5, 0, page(0x24)),
        (8, 0, pattern(0xC0, 8)),
        (10, 12288, page(0x25)),
    ];
    let t = write_batch(&rig, &mut run, t, f, &partial, &mut oracle);
    {
        let mgr = rig.store.manager();
        let meta = mgr.file(f).unwrap();
        assert!(meta.parity_is_stale(0, 0) && meta.parity_is_stale(1, 1));
        assert!(meta.parity_is_stale(2, 0));
        assert_eq!(meta.parity_slot(2, 0), Slot::Unmaterialized);
    }
    // The data victim returns: group 1's stale parity now has a live home
    // (rewrite in place); the parity victim stays dead (re-home its
    // chunks, materialize group 2's parity elsewhere).
    rig.store.set_benefactor_alive(data_victim, true);
    let stale_parity = match rig.store.manager().file(f).unwrap().parity_slot(1, 1) {
        Slot::Chunk(c) => c,
        _ => panic!("group 1 parity not materialized"),
    };
    let lost_data = chunk_of(&rig.store, f, 4);
    let t = run.report(rig.store.repair_parity_groups(t));
    {
        let mgr = rig.store.manager();
        let meta = mgr.file(f).unwrap();
        for g in 0..3 {
            assert!(!meta.parity_is_stale(g, 0) && !meta.parity_is_stale(g, 1));
        }
        assert_eq!(meta.parity_slot(1, 1), Slot::Chunk(stale_parity));
        assert_eq!(mgr.chunk_homes(stale_parity).unwrap(), &[data_victim]);
        assert!(matches!(meta.parity_slot(2, 0), Slot::Chunk(_)));
        assert!(!mgr.chunk_homes(lost_data).unwrap().contains(&parity_victim));
    }
    let t = run.report(rig.store.repair_parity_groups(t));
    let t = read_all_serial(&rig, &mut run, t, f, &oracle);
    read_all_batched(&rig, &mut run, t, f, &oracle, &cache);
    assert_eq!(rig.store.count_corrupt_copies(), 0);
    check("rs_reconstruct_stale_parity_repair", &rig, &run, &RS);
}

// ----- (c) scrub daemon -----------------------------------------------------

#[test]
fn scrub_replicated_and_sole_copy() {
    let cfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let rig = rig(cfg, 4);
    let mut run = Run::default();
    let (t, rep) = make_file(
        &rig,
        &mut run,
        "/rep",
        4,
        StripeSpec::all().with_replicas(2),
    );
    let mut rep_oracle: Vec<Option<Vec<u8>>> = vec![None; 4];
    let fill: Vec<(usize, u64, Vec<u8>)> = (0..4).map(|i| (i, 0, pattern(0xD0, i))).collect();
    let t = write_batch(&rig, &mut run, t, rep, &fill, &mut rep_oracle);
    let (t2, ec) = rig.store.create_file(t, rig.client, "/ec").unwrap();
    let t = rig
        .store
        .fallocate(
            run.at(t2),
            rig.client,
            ec,
            2 * CHUNK,
            StripeSpec::all().with_parity(2, 1),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let mut ec_oracle: Vec<Option<Vec<u8>>> = vec![None; 2];
    let fill: Vec<(usize, u64, Vec<u8>)> = (0..2).map(|i| (i, 0, pattern(0xE0, i))).collect();
    let t = run.at(t);
    let t = write_batch(&rig, &mut run, t, ec, &fill, &mut ec_oracle);

    // Every copy on one benefactor rots: one replica of each replicated
    // chunk it holds and the sole copy of a parity-group data member.
    let victim = rig.store.manager().file(ec).unwrap().home_of_slot(0);
    let rotten = chunk_of(&rig.store, ec, 0);
    rig.store.attach_faults(
        FaultPlanBuilder::new(0x5EED0C)
            .bit_rot(t + VTime::from_micros(1), victim.0, 10_000)
            .build(),
    );
    rig.store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(2),
            chunks_per_pass: 3,
            ..ScrubConfig::default()
        },
        t + VTime::from_micros(2),
    );
    let mut corrupt_left = Vec::new();
    let mut now = t;
    for _ in 0..6 {
        now += VTime::from_millis(20);
        rig.store.poll_faults(now);
        corrupt_left.push(rig.store.count_corrupt_copies() as u64);
    }
    assert!(
        corrupt_left[0] > 0,
        "the first pass cannot reach every chunk"
    );
    assert_eq!(corrupt_left.last(), Some(&0), "scrub left rot behind");
    // The sole copy was rebuilt where it was, not re-homed.
    assert_eq!(rig.store.manager().chunk_homes(rotten).unwrap(), &[victim]);
    run.times_ns.extend(corrupt_left);
    let t = read_all_serial(&rig, &mut run, now, rep, &rep_oracle);
    read_all_serial(&rig, &mut run, t, ec, &ec_oracle);
    check("scrub_replicated_and_sole_copy", &rig, &run, &SCRUB);
}

// ----- (d) manager HA -------------------------------------------------------

/// Crash rank 0 → standby takeover → reads and writes; then crash the
/// last rank and reboot it cold before its standby would have taken over.
fn ha_scenario(shards: usize) -> (Rig, Run) {
    let cfg = StoreConfig {
        ha_standby: true,
        manager_shards: shards,
        fetch_retries: 12,
        ..StoreConfig::default()
    };
    let rig = rig(cfg, 3);
    if shards > 0 {
        let nodes: Vec<usize> = (0..shards).map(|k| k + 1).collect();
        let standbys: Vec<usize> = (0..shards).map(|k| k + 2).collect();
        rig.store.install_shards(&nodes, 77);
        rig.store.set_standby_nodes(&standbys);
    }
    let mut run = Run::default();
    let (t, f) = make_file(&rig, &mut run, "/ha", 8, StripeSpec::all());
    let mut oracle: Vec<Option<Vec<u8>>> = vec![None; 8];
    let fill: Vec<(usize, u64, Vec<u8>)> = (0..6).map(|i| (i, 0, pattern(0xF0, i))).collect();
    let t = write_batch(&rig, &mut run, t, f, &fill, &mut oracle);
    let cache = LocationCache::new(&rig.stats);
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);

    let crash = t + VTime::from_micros(1);
    let last = shards.saturating_sub(1);
    let second_crash = crash + VTime::from_millis(200);
    rig.store.attach_faults(
        FaultPlanBuilder::new(0x5EED0D)
            .mgr_crash(crash, 0)
            .mgr_crash(second_crash, last)
            .mgr_recover(second_crash + VTime::from_millis(20), last)
            .build(),
    );
    // Leased batched reads ride through; serial reads and the namespace
    // op wait for the takeover.
    let t = read_all_batched(&rig, &mut run, crash, f, &oracle, &cache);
    let t = read_all_serial(&rig, &mut run, t, f, &oracle);
    let (t, found) = rig.store.open(t, rig.client, "/ha").unwrap();
    assert_eq!(found, Some(f));
    assert!(!rig.store.manager_rank_down(0));
    let after = vec![
        (1, 4096, page(0x31)),
        (6, 0, pattern(0xF8, 6)),
        (7, 8192, page(0x32)),
    ];
    let t = run.at(t);
    let t = write_batch(&rig, &mut run, t, f, &after, &mut oracle);
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);

    // Second outage: the rank reboots cold 20 ms in, ahead of the 25 ms takeover.
    let t = t.max(second_crash);
    let t = read_all_batched(&rig, &mut run, t, f, &oracle, &cache);
    let t = write_serial(&rig, &mut run, t, f, (3, 0, &page(0x33)), &mut oracle);
    let t = read_all_serial(&rig, &mut run, t, f, &oracle);
    let t = write_batch(&rig, &mut run, t, f, &[(2, 4096, page(0x34))], &mut oracle);
    read_all_batched(&rig, &mut run, t, f, &oracle, &cache);
    assert!(!rig.store.manager_rank_down(last));
    (rig, run)
}

#[test]
fn ha_sharded_takeover() {
    let (rig, run) = ha_scenario(2);
    check("ha_sharded_takeover", &rig, &run, &HA_SHARDED);
}

#[test]
fn ha_serial_takeover() {
    let (rig, run) = ha_scenario(0);
    check("ha_serial_takeover", &rig, &run, &HA_SERIAL);
}

// ----- constants recorded at f06271e, re-recorded once (see the header) ------

const REPLICAS: Golden = Golden {
    times_ns: &[
        112_048,
        224_096,
        4_100_320,
        6_197_472,
        8_294_624,
        10_391_776,
        12_488_928,
        14_875_152,
        17_260_376,
        19_645_600,
        22_030_824,
        24_416_048,
        24_528_096,
        26_913_320,
        27_961_896,
        31_107_624,
        29_010_472,
        30_059_048,
        24_640_144,
        31_385_150,
        31_662_676,
        31_662_676,
        31_828_154,
        47_184_858,
        49_570_082,
        50_618_658,
        53_764_386,
        51_667_234,
        52_715_810,
        56_037_562,
        2_014_875_152,
        2_017_260_376,
        2_019_645_600,
        2_022_030_824,
        2_024_416_048,
        2_026_801_272,
        2_026_801_272,
        2_029_186_496,
        2_030_235_072,
        2_033_380_800,
        2_031_283_648,
        2_032_332_224,
        2_035_653_976,
    ],
    reports: &[(4, 1_048_576, 0), (0, 0, 0)],
    span_hash: 0xD7E0429186CA59BA,
    counters: "\
b0.ssd.read_bytes=3145728
b0.ssd.reads=12
b0.ssd.writes=7
b0.ssd.written_bytes=1318912
b1.ssd.read_bytes=0
b1.ssd.reads=0
b1.ssd.writes=3
b1.ssd.written_bytes=786432
b2.ssd.read_bytes=3932160
b2.ssd.reads=15
b2.ssd.writes=6
b2.ssd.written_bytes=1056768
b3.ssd.read_bytes=1310720
b3.ssd.reads=5
b3.ssd.writes=2
b3.ssd.written_bytes=524288
net.bytes=11043840
net.messages=114
store.batched_fetches=3
store.batched_writes=2
store.benefactor_crashes=1
store.benefactor_recoveries=1
store.bytes_from_clients=2637824
store.bytes_to_clients=7340032
store.chunk_fetches=30
store.cow_clones=0
store.degraded_reads=2
store.failovers=2
store.loc_cache_hits=0
store.loc_cache_invalidations=2
store.loc_cache_misses=18
store.mgr_rpc_fetch=15
store.mgr_rpc_place=2
store.mgr_rpc_write=3
store.mgr_rpcs=20
store.repairs_bytes=1048576
store.repairs_chunks=4
store.zero_fills=2
",
};

const RS: Golden = Golden {
    times_ns: &[
        112_048,
        224_096,
        8_294_624,
        8_294_624,
        8_294_624,
        8_294_624,
        14_586_080,
        14_586_080,
        14_586_080,
        14_586_080,
        16_972_304,
        22_503_256,
        24_888_480,
        27_273_704,
        32_804_656,
        35_189_880,
        37_575_104,
        39_960_328,
        40_072_376,
        40_184_424,
        40_296_472,
        40_408_520,
        42_793_744,
        52_230_928,
        43_842_320,
        44_890_896,
        56_425_232,
        45_939_472,
        46_988_048,
        48_036_624,
        40_520_568,
        40_520_568,
        40_520_568,
        40_520_568,
        56_702_758,
        57_020_762,
        57_020_762,
        57_119_856,
        60_744_460,
        60_744_460,
        98_322_684,
        98_322_684,
        100_707_908,
        103_093_132,
        105_478_356,
        107_863_580,
        110_248_804,
        112_634_028,
        115_019_252,
        117_404_476,
        119_789_700,
        119_901_748,
        122_286_972,
        122_399_020,
        124_784_244,
        125_832_820,
        126_881_396,
        127_929_972,
        133_172_852,
        128_978_548,
        130_027_124,
        131_075_700,
        132_124_276,
        122_511_068,
        135_446_028,
        122_511_068,
    ],
    reports: &[(4, 4_718_592, 0), (0, 0, 0)],
    span_hash: 0x04FD37F1F1B34798,
    counters: "\
b0.ssd.read_bytes=3407872
b0.ssd.reads=13
b0.ssd.writes=6
b0.ssd.written_bytes=798720
b1.ssd.read_bytes=786432
b1.ssd.reads=3
b1.ssd.writes=3
b1.ssd.written_bytes=786432
b2.ssd.read_bytes=3407872
b2.ssd.reads=13
b2.ssd.writes=4
b2.ssd.written_bytes=532480
b3.ssd.read_bytes=1835008
b3.ssd.reads=7
b3.ssd.writes=1
b3.ssd.written_bytes=262144
b4.ssd.read_bytes=0
b4.ssd.reads=0
b4.ssd.writes=2
b4.ssd.written_bytes=524288
b5.ssd.read_bytes=2621440
b5.ssd.reads=10
b5.ssd.writes=5
b5.ssd.written_bytes=798720
b6.ssd.read_bytes=2097152
b6.ssd.reads=8
b6.ssd.writes=4
b6.ssd.written_bytes=790528
b7.ssd.read_bytes=2097152
b7.ssd.reads=8
b7.ssd.writes=1
b7.ssd.written_bytes=262144
net.bytes=19987968
net.messages=194
store.batched_fetches=2
store.batched_writes=2
store.benefactor_crashes=2
store.benefactor_recoveries=1
store.bytes_from_clients=3706880
store.bytes_to_clients=12582912
store.chunk_fetches=48
store.cow_clones=0
store.crc_mismatches=0
store.degraded_reads=4
store.degraded_reconstructs=4
store.failovers=4
store.loc_cache_hits=0
store.loc_cache_invalidations=1
store.loc_cache_misses=24
store.mgr_rpc_fetch=26
store.mgr_rpc_place=2
store.mgr_rpc_write=3
store.mgr_rpcs=31
store.parity_bytes=1327104
store.parity_encodes=8
store.parity_repairs=4
store.quarantined=0
store.repairs_bytes=0
store.repairs_chunks=0
store.scrub_passes=0
store.scrub_repairs=0
store.zero_fills=12
",
};

const SCRUB: Golden = Golden {
    times_ns: &[
        112_048,
        224_096,
        4_100_320,
        6_197_472,
        8_294_624,
        10_391_776,
        10_503_824,
        10_615_872,
        15_540_672,
        15_540_672,
        1,
        0,
        0,
        0,
        0,
        0,
        144_504_280,
        148_973_584,
        151_358_808,
        160_322_416,
        165_915_296,
        168_300_520,
    ],
    reports: &[],
    span_hash: 0xD31C2E7E5C67FE93,
    counters: "\
b0.ssd.read_bytes=3407872
b0.ssd.reads=13
b0.ssd.writes=3
b0.ssd.written_bytes=786432
b1.ssd.read_bytes=2621440
b1.ssd.reads=10
b1.ssd.writes=5
b1.ssd.written_bytes=1310720
b2.ssd.read_bytes=4456448
b2.ssd.reads=17
b2.ssd.writes=3
b2.ssd.written_bytes=786432
b3.ssd.read_bytes=3407872
b3.ssd.reads=13
b3.ssd.writes=3
b3.ssd.written_bytes=786432
net.bytes=5512704
net.messages=51
store.batched_fetches=0
store.batched_writes=2
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=2883584
store.bytes_to_clients=1572864
store.chunk_fetches=6
store.cow_clones=0
store.crc_mismatches=3
store.degraded_reads=0
store.degraded_reconstructs=0
store.failovers=0
store.mgr_rpc_fetch=6
store.mgr_rpc_place=4
store.mgr_rpc_write=2
store.mgr_rpcs=12
store.parity_bytes=262144
store.parity_encodes=1
store.parity_repairs=1
store.quarantined=0
store.repairs_bytes=0
store.repairs_chunks=0
store.scrub_passes=9
store.scrub_repairs=3
store.zero_fills=0
",
};

const HA_SHARDED: Golden = Golden {
    times_ns: &[
        112_048,
        224_096,
        3_051_744,
        4_100_320,
        5_148_896,
        6_197_472,
        7_246_048,
        8_294_624,
        10_679_848,
        11_728_424,
        12_777_000,
        13_825_576,
        14_874_152,
        15_922_728,
        8_406_672,
        8_406_672,
        18_196_904,
        19_245_480,
        20_294_056,
        21_342_632,
        22_391_208,
        23_439_784,
        15_923_728,
        15_923_728,
        25_825_008,
        28_210_232,
        30_595_456,
        47_980_680,
        50_365_904,
        52_751_128,
        52_863_176,
        52_975_224,
        53_087_272,
        53_364_798,
        55_914_920,
        53_530_276,
        58_300_144,
        59_348_720,
        60_397_296,
        61_445_872,
        62_494_448,
        63_543_024,
        64_591_600,
        65_640_176,
        218_196_904,
        219_245_480,
        220_294_056,
        221_342_632,
        222_391_208,
        223_439_784,
        224_488_360,
        225_536_936,
        225_814_462,
        243_199_686,
        245_584_910,
        247_970_134,
        250_355_358,
        252_740_582,
        255_125_806,
        257_511_030,
        259_896_254,
        260_173_780,
        262_559_004,
        263_607_580,
        264_656_156,
        265_704_732,
        266_753_308,
        267_801_884,
        268_850_460,
        269_899_036,
    ],
    reports: &[],
    span_hash: 0x8E2C8408F8016B5B,
    counters: "\
b0.ssd.read_bytes=4718592
b0.ssd.reads=18
b0.ssd.writes=4
b0.ssd.written_bytes=790528
b1.ssd.read_bytes=4718592
b1.ssd.reads=18
b1.ssd.writes=4
b1.ssd.written_bytes=532480
b2.ssd.read_bytes=3670016
b2.ssd.reads=14
b2.ssd.writes=3
b2.ssd.written_bytes=528384
net.bytes=14987264
net.messages=173
store.batched_fetches=5
store.batched_writes=2
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=1851392
store.bytes_to_clients=13107200
store.chunk_fetches=56
store.cow_clones=0
store.degraded_reads=0
store.failovers=0
store.journal_records=10
store.journal_replays=1
store.lease_expiries=0
store.lease_grants=4
store.lease_renewals=27
store.lease_revokes=2
store.loc_cache_hits=16
store.loc_cache_invalidations=2
store.loc_cache_misses=24
store.mgr_failover_us=25002
store.mgr_failovers=1
store.mgr_rpc_fetch=22
store.mgr_rpc_place=3
store.mgr_rpc_write=6
store.mgr_rpcs=31
store.repairs_bytes=0
store.repairs_chunks=0
store.shard_rpcs.s0=15
store.shard_rpcs.s1=16
store.zero_fills=6
",
};

const HA_SERIAL: Golden = Golden {
    times_ns: &[
        112_048,
        224_096,
        3_051_744,
        4_100_320,
        5_148_896,
        6_197_472,
        7_246_048,
        8_294_624,
        10_679_848,
        11_728_424,
        12_777_000,
        13_825_576,
        14_874_152,
        15_922_728,
        8_406_672,
        8_406_672,
        18_196_904,
        19_245_480,
        20_294_056,
        21_342_632,
        22_391_208,
        23_439_784,
        15_923_728,
        15_923_728,
        45_825_008,
        48_210_232,
        50_595_456,
        52_980_680,
        55_365_904,
        57_751_128,
        57_863_176,
        57_975_224,
        58_087_272,
        58_364_798,
        60_914_920,
        58_530_276,
        63_300_144,
        64_348_720,
        65_397_296,
        66_445_872,
        67_494_448,
        68_543_024,
        69_591_600,
        70_640_176,
        218_196_904,
        219_245_480,
        220_294_056,
        221_342_632,
        222_391_208,
        223_439_784,
        224_488_360,
        225_536_936,
        240_814_462,
        243_199_686,
        245_584_910,
        247_970_134,
        250_355_358,
        252_740_582,
        255_125_806,
        257_511_030,
        259_896_254,
        260_173_780,
        262_559_004,
        263_607_580,
        264_656_156,
        265_704_732,
        266_753_308,
        267_801_884,
        268_850_460,
        269_899_036,
    ],
    reports: &[],
    span_hash: 0x55F08FE6D0D06B87,
    counters: "\
b0.ssd.read_bytes=4718592
b0.ssd.reads=18
b0.ssd.writes=4
b0.ssd.written_bytes=790528
b1.ssd.read_bytes=4718592
b1.ssd.reads=18
b1.ssd.writes=4
b1.ssd.written_bytes=532480
b2.ssd.read_bytes=3670016
b2.ssd.reads=14
b2.ssd.writes=3
b2.ssd.written_bytes=528384
net.bytes=14984704
net.messages=163
store.batched_fetches=5
store.batched_writes=2
store.benefactor_crashes=0
store.benefactor_recoveries=0
store.bytes_from_clients=1851392
store.bytes_to_clients=13107200
store.chunk_fetches=56
store.cow_clones=0
store.degraded_reads=0
store.failovers=0
store.journal_records=10
store.journal_replays=1
store.loc_cache_hits=16
store.loc_cache_invalidations=2
store.loc_cache_misses=24
store.mgr_failover_us=25006
store.mgr_failovers=1
store.mgr_rpc_fetch=19
store.mgr_rpc_place=3
store.mgr_rpc_write=4
store.mgr_rpcs=26
store.repairs_bytes=0
store.repairs_chunks=0
store.zero_fills=6
",
};
