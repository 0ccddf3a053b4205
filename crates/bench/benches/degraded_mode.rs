//! Degraded-mode evaluation: the paper's workloads run to completion
//! through a benefactor failure when chunks carry redundancy.
//!
//! Not a figure from the paper — the paper's §V assumes a healthy store —
//! but the natural follow-up question: what does surviving a benefactor
//! failure cost? Measurements:
//!
//! * redundancy overhead — Fig-3-style MM and STREAM TRIAD at k=1 vs
//!   k=2 replication vs RS(4,2) erasure coding on a healthy store;
//! * degraded operation — the same k=2 runs with a seeded fault plan
//!   killing one benefactor mid-run: the run completes, results verify,
//!   failovers are counted (k=1 fails with a clear error instead);
//! * erasure-coding ablation — k=1 vs replicas=2 vs RS(4,2) on a
//!   persistent dataset: physical storage overhead, wire write bytes,
//!   degraded-read latency and time-to-repair (DESIGN.md §15);
//! * zero wrong bytes — a seeded mid-sweep benefactor crash over an
//!   RS(4,2) dataset: every read after the crash reconstructs from the
//!   k survivors and byte-compares against the written pattern;
//! * time-to-repair — re-replication and parity-group-rebuild sweeps
//!   after a loss, restoring every chunk to target redundancy.
//!
//! Run with `-- --smoke` for the CI-sized variant; scripts/ledger.sh diffs
//! its JSON against a committed expectation, knobs-off baselines included,
//! pinning that the parity machinery changes nothing while switched off
//! (and that m=0 is bit-identical to plain striping).

use bench::{header, secs, store_health, stream_fuse, JsonReport, Table, SCALE};
use chunkstore::{
    BatchWrite, BenefactorId, ChunkPayload, PlacementPolicy, Slot, StoreError, StripeSpec,
};
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use simcore::VTime;
use workloads::matmul::{run_mm, BPlacement, MmConfig, MmReport};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

const VICTIM: usize = 3;
const CHUNK: usize = 256 * 1024;
const RS_K: usize = 4;
const RS_M: usize = 2;

fn mm_cluster(cfg: &JobConfig) -> Cluster {
    Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        bench::scaled_fuse(SCALE),
    )
}

fn run_mm_once(n: usize, cfg: JobConfig, crash_at: Option<VTime>) -> (MmReport, Cluster) {
    let cluster = mm_cluster(&cfg);
    if let Some(at) = crash_at {
        cluster.attach_faults(FaultPlanBuilder::new(2012).crash(at, VICTIM).build());
    }
    let mm = MmConfig {
        b_place: BPlacement::NvmShared,
        ..MmConfig::paper_2gb(n)
    };
    let r = run_mm(&cluster, &cfg, &mm).expect("feasible configuration");
    (r, cluster)
}

fn run_stream_once(
    replicas: usize,
    crash_at: Option<VTime>,
    elems: usize,
) -> (f64, bool, VTime, Cluster) {
    let cfg = JobConfig::remote(8, 1, 2).with_replicas(replicas);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        stream_fuse(SCALE, 8),
    );
    if let Some(at) = crash_at {
        cluster.attach_faults(FaultPlanBuilder::new(2012).crash(at, 0).build());
    }
    let scfg = StreamConfig::new(elems).place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let r = run_stream(
        &cluster,
        &cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    (r.bandwidth_mb_s, r.verified, r.time, cluster)
}

/// k=1 has no degraded mode: show the documented failure instead.
fn demonstrate_k1_failure(report: &mut JsonReport) {
    let cluster = mm_cluster(&JobConfig::local(8, 8, 8));
    let store = &cluster.store;
    let (t, f) = store.create_file(VTime::ZERO, 0, "/unreplicated").unwrap();
    let t = store
        .fallocate(
            t,
            0,
            f,
            CHUNK as u64,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let page = vec![1u8; 4096];
    let t = store.write_pages(t, 0, f, 0, &[(0, &page)]).unwrap();
    let home = {
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        match meta.slots[0] {
            Slot::Chunk(c) => mgr.chunk_homes(c).unwrap()[0],
            _ => unreachable!(),
        }
    };
    store.set_benefactor_alive(home, false);
    let err = store.fetch_chunk(t, 0, f, 0).unwrap_err();
    report.ran(&cluster);
    println!("  k=1 after crash of {home:?}: read fails with `{err:?}` (no silent data loss)");
    report.check(
        "k=1 reports BenefactorDown for the lost copy",
        matches!(err, StoreError::BenefactorDown(b) if b == home),
    );
}

// ----- erasure-coding ablation (DESIGN.md §15) -------------------------------

/// Deterministic per-chunk test pattern, distinct across chunks so a
/// reconstruction that mixes members cannot go unnoticed.
fn ec_pattern(idx: usize) -> Vec<u8> {
    (0..CHUNK)
        .map(|i| (i as u8).wrapping_mul(31) ^ (idx as u8).wrapping_mul(167))
        .collect()
}

enum EcMode {
    Plain,
    Replicas,
    Rs,
}

struct EcRun {
    wire_bytes: u64,
    storage_ratio: f64,
    healthy_read: VTime,
    degraded_read: Option<VTime>,
    repair: Option<(VTime, u64)>,
    placement_ok: bool,
    cluster: Cluster,
}

/// Write `size` bytes of patterned data under the given redundancy spec
/// (one batched full-group write, so parity encodes without any
/// read-modify-write), then lose one benefactor and measure the degraded
/// read and the repair sweep.
fn ec_dataset(mode: EcMode, size: u64) -> EcRun {
    let spec = match mode {
        EcMode::Plain => StripeSpec::all(),
        EcMode::Replicas => StripeSpec::all().with_replicas(2),
        EcMode::Rs => StripeSpec::all().with_parity(RS_K, RS_M),
    };
    let cluster = mm_cluster(&JobConfig::local(8, 8, 8));
    let store = &cluster.store;
    let (t, f) = store.create_file(VTime::ZERO, 0, "/dataset").unwrap();
    let t = store
        .fallocate(t, 0, f, size, spec, PlacementPolicy::RoundRobin)
        .unwrap();
    let nchunks = size as usize / CHUNK;
    let bufs: Vec<Vec<u8>> = (0..nchunks).map(ec_pattern).collect();
    let updates: Vec<[(u64, &[u8]); 1]> = bufs.iter().map(|b| [(0u64, b.as_slice())]).collect();
    let batch: Vec<BatchWrite<'_>> = (0..nchunks)
        .map(|idx| BatchWrite {
            file: f,
            idx,
            updates: &updates[idx],
        })
        .collect();
    let ends = store.write_pages_batch(t, 0, &batch).unwrap();
    let write_end = ends.iter().copied().max().unwrap();
    let wire_bytes = cluster.stats.get("store.bytes_from_clients");

    // Physical footprint: every materialized copy, data and parity alike.
    let (storage_ratio, placement_ok, victim_idx) = {
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        let mut copies = 0u64;
        for s in &meta.slots {
            if let Slot::Chunk(c) = s {
                copies += mgr.chunk_homes(*c).unwrap().len() as u64;
            }
        }
        for g in 0..meta.parity_groups() {
            for p in 0..meta.parity {
                if let Slot::Chunk(c) = meta.parity_slot(g, p) {
                    copies += mgr.chunk_homes(c).unwrap().len() as u64;
                }
            }
        }
        // Placement invariant: every parity group spreads its k + m
        // members over distinct benefactors (vacuously true without
        // parity).
        let mut ok = true;
        for g in 0..meta.parity_groups() {
            let mut homes: Vec<BenefactorId> = meta
                .group_data_slots(g)
                .map(|idx| match meta.slots[idx] {
                    Slot::Chunk(c) => mgr.chunk_homes(c).unwrap()[0],
                    _ => meta.home_of_slot(idx),
                })
                .collect();
            for p in 0..meta.parity {
                homes.push(match meta.parity_slot(g, p) {
                    Slot::Chunk(c) => mgr.chunk_homes(c).unwrap()[0],
                    _ => meta.parity_home(g, p),
                });
            }
            let n = homes.len();
            homes.sort();
            homes.dedup();
            ok &= homes.len() == n;
        }
        let victim_idx = (0..meta.slots.len()).find(|&i| match meta.slots[i] {
            Slot::Chunk(c) => mgr.chunk_homes(c).unwrap().contains(&BenefactorId(VICTIM)),
            _ => false,
        });
        (copies as f64 * CHUNK as f64 / size as f64, ok, victim_idx)
    };
    let victim_idx = victim_idx.expect("round-robin places a chunk on every benefactor");

    // Healthy read latency on the chunk we are about to orphan, then the
    // same read with its home dead.
    let t0 = write_end + VTime::from_millis(1);
    let (t1, payload) = store.fetch_chunk(t0, 0, f, victim_idx).unwrap();
    assert!(matches!(payload, ChunkPayload::Data(ref d) if *d == bufs[victim_idx][..]));
    let healthy_read = t1 - t0;
    store.set_benefactor_alive(BenefactorId(VICTIM), false);
    let t2 = t1 + VTime::from_millis(1);
    let degraded_read = match store.fetch_chunk(t2, 0, f, victim_idx) {
        Ok((t3, ChunkPayload::Data(d))) => {
            assert!(
                d == bufs[victim_idx][..],
                "degraded read returned wrong bytes"
            );
            Some(t3 - t2)
        }
        Ok((_, ChunkPayload::Zeros)) => panic!("degraded read returned zeros"),
        Err(_) => None,
    };

    // Repair to full redundancy, then prove the degraded window is
    // closed: the same read must succeed without another reconstruction.
    let t4 = t2 + VTime::from_millis(10);
    let repair = match mode {
        EcMode::Plain => None,
        EcMode::Replicas => {
            let (done, r) = store.repair_under_replicated(t4);
            assert_eq!(r.chunks_unrepairable, 0);
            assert!(store.manager().under_replicated().is_empty());
            Some((done - t4, r.chunks_repaired))
        }
        EcMode::Rs => {
            let (done, r) = store.repair_parity_groups(t4);
            assert_eq!(r.chunks_unrepairable, 0);
            let before = cluster.stats.get("store.degraded_reconstructs");
            let (_, payload) = store
                .fetch_chunk(done + VTime::from_millis(1), 0, f, victim_idx)
                .unwrap();
            assert!(matches!(payload, ChunkPayload::Data(ref d) if *d == bufs[victim_idx][..]));
            assert_eq!(
                cluster.stats.get("store.degraded_reconstructs"),
                before,
                "post-repair read should not need reconstruction"
            );
            Some((done - t4, r.chunks_repaired))
        }
    };
    EcRun {
        wire_bytes,
        storage_ratio,
        healthy_read,
        degraded_read,
        repair,
        placement_ok,
        cluster,
    }
}

fn measure_ec_ablation(report: &mut JsonReport, size: u64) {
    println!();
    println!(
        "  erasure-coding ablation over {} (k=1 vs replicas=2 vs RS({RS_K},{RS_M})):",
        simcore::bytes::human(size)
    );
    let plain = ec_dataset(EcMode::Plain, size);
    let rep = ec_dataset(EcMode::Replicas, size);
    let rs = ec_dataset(EcMode::Rs, size);

    let t = Table::new(&[
        ("Redundancy", 14),
        ("storage x", 10),
        ("wire MiB", 10),
        ("deg read ms", 12),
        ("repair s", 10),
    ]);
    let ms = |d: Option<VTime>| match d {
        Some(d) => format!("{:.3}", d.as_secs_f64() * 1e3),
        None => "fails".into(),
    };
    let rep_s = |r: &Option<(VTime, u64)>| match r {
        Some((d, _)) => secs(*d),
        None => "-".into(),
    };
    for (name, run) in [("k=1", &plain), ("replicas=2", &rep), ("RS(4,2)", &rs)] {
        t.row(&[
            name.into(),
            format!("{:.2}", run.storage_ratio),
            bench::mib(run.wire_bytes),
            ms(run.degraded_read),
            rep_s(&run.repair),
        ]);
    }
    store_health("RS(4,2) dataset", &rs.cluster);
    for run in [&plain, &rep, &rs] {
        report.ran(&run.cluster);
    }

    report
        .value("ec_storage_ratio_plain", plain.storage_ratio)
        .value("ec_storage_ratio_replicas", rep.storage_ratio)
        .value("ec_storage_ratio_rs", rs.storage_ratio)
        .value("ec_wire_bytes_plain", plain.wire_bytes as f64)
        .value("ec_wire_bytes_replicas", rep.wire_bytes as f64)
        .value("ec_wire_bytes_rs", rs.wire_bytes as f64)
        .value("ec_healthy_read_s_rs", rs.healthy_read)
        .value(
            "ec_degraded_read_s_replicas",
            rep.degraded_read.unwrap_or(VTime::ZERO),
        )
        .value(
            "ec_degraded_read_s_rs",
            rs.degraded_read.unwrap_or(VTime::ZERO),
        )
        .value(
            "ec_repair_s_replicas",
            rep.repair.map(|(d, _)| d).unwrap_or(VTime::ZERO),
        )
        .value(
            "ec_repair_s_rs",
            rs.repair.map(|(d, _)| d).unwrap_or(VTime::ZERO),
        )
        .counter(
            "ec_repair_chunks_rs",
            rs.repair.map(|(_, c)| c).unwrap_or(0),
        )
        .counter(
            "ec_parity_encodes",
            rs.cluster.stats.get("store.parity_encodes"),
        )
        .counter(
            "ec_parity_bytes",
            rs.cluster.stats.get("store.parity_bytes"),
        )
        .counter(
            "ec_degraded_reconstructs",
            rs.cluster.stats.get("store.degraded_reconstructs"),
        )
        .counter(
            "ec_parity_repairs",
            rs.cluster.stats.get("store.parity_repairs"),
        );
    report.check(
        "parity groups place every member on a distinct benefactor",
        rs.placement_ok && rep.placement_ok && plain.placement_ok,
    );
    report.check(
        "RS(4,2) stores at most 1.55x the logical bytes",
        rs.storage_ratio <= 1.55 && rs.storage_ratio > 1.0,
    );
    report.check(
        "replicas=2 stores 2x the logical bytes",
        (rep.storage_ratio - 2.0).abs() < 1e-9,
    );
    report.check(
        "RS(4,2) ships strictly fewer write bytes than replicas=2",
        rs.wire_bytes < rep.wire_bytes && rs.wire_bytes > plain.wire_bytes,
    );
    report.check(
        "degraded reads survive the loss under both schemes; k=1 fails",
        rep.degraded_read.is_some() && rs.degraded_read.is_some() && plain.degraded_read.is_none(),
    );
    report.check(
        "reconstruction from k survivors costs more than a healthy read",
        rs.degraded_read.unwrap_or(VTime::ZERO) > rs.healthy_read,
    );
    report.check(
        "repair closes the degraded window for both redundancy schemes",
        rep.repair.map(|(_, c)| c > 0).unwrap_or(false)
            && rs.repair.map(|(_, c)| c > 0).unwrap_or(false),
    );
}

/// A seeded benefactor crash in the middle of a read sweep over an
/// RS(4,2) dataset: every chunk read after the crash reconstructs from
/// the k survivors, and every byte matches what was written.
fn demonstrate_rs_crash_sweep(report: &mut JsonReport, size: u64) {
    let sweep = |crash_at: Option<VTime>| -> (VTime, u64, Cluster) {
        let cluster = mm_cluster(&JobConfig::local(8, 8, 8));
        let store = &cluster.store;
        let (t, f) = store.create_file(VTime::ZERO, 0, "/sweep").unwrap();
        let t = store
            .fallocate(
                t,
                0,
                f,
                size,
                StripeSpec::all().with_parity(RS_K, RS_M),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let nchunks = size as usize / CHUNK;
        let bufs: Vec<Vec<u8>> = (0..nchunks).map(ec_pattern).collect();
        let updates: Vec<[(u64, &[u8]); 1]> = bufs.iter().map(|b| [(0u64, b.as_slice())]).collect();
        let batch: Vec<BatchWrite<'_>> = (0..nchunks)
            .map(|idx| BatchWrite {
                file: f,
                idx,
                updates: &updates[idx],
            })
            .collect();
        let ends = store.write_pages_batch(t, 0, &batch).unwrap();
        let mut now = ends.iter().copied().max().unwrap();
        if let Some(at) = crash_at {
            cluster.attach_faults(FaultPlanBuilder::new(2012).crash(at, VICTIM).build());
        }
        let mut wrong = 0u64;
        for (idx, expect) in bufs.iter().enumerate() {
            let (t2, payload) = store.fetch_chunk(now, 0, f, idx).unwrap();
            now = t2;
            match payload {
                ChunkPayload::Data(d) => {
                    wrong += d
                        .to_vec()
                        .iter()
                        .zip(expect)
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                }
                ChunkPayload::Zeros => wrong += expect.len() as u64,
            }
        }
        (now, wrong, cluster)
    };
    // A clean sweep first, to learn the fault-free duration; the crash is
    // seeded halfway through the re-run.
    let (clean_end, clean_wrong, clean) = sweep(None);
    let crash_at = clean_end / 2;
    let (end, wrong, cluster) = sweep(Some(crash_at));
    let reconstructs = cluster.stats.get("store.degraded_reconstructs");
    let (end2, wrong2, cluster2) = sweep(Some(crash_at));
    println!();
    println!(
        "  RS({RS_K},{RS_M}) read sweep with benefactor {VICTIM} crashed at {}: \
         {} wrong bytes, {reconstructs} reconstructions, done at {} (clean {})",
        secs(crash_at),
        wrong,
        secs(end),
        secs(clean_end),
    );
    store_health("RS sweep faulted", &cluster);
    report
        .ran(&clean)
        .ran(&cluster)
        .ran(&cluster2)
        .value("rs_sweep_clean_s", clean_end)
        .value("rs_sweep_faulted_s", end)
        .counter("rs_sweep_reconstructs", reconstructs);
    report.check(
        "mid-sweep crash over RS(4,2) yields zero wrong bytes",
        clean_wrong == 0 && wrong == 0 && reconstructs > 0,
    );
    report.check(
        "degraded sweep is no faster than fault-free",
        end >= clean_end,
    );
    report.check(
        "same seed reproduces the identical degraded sweep",
        end == end2
            && wrong2 == 0
            && reconstructs == cluster2.stats.get("store.degraded_reconstructs"),
    );
}

/// m=0 must be byte-for-byte plain striping: identical virtual times and
/// no parity counters ever registered.
fn m0_identity(report: &mut JsonReport, size: u64) {
    let mut run = |spec: StripeSpec| -> (VTime, bool) {
        let cluster = mm_cluster(&JobConfig::local(8, 8, 8));
        let store = &cluster.store;
        let (t, f) = store.create_file(VTime::ZERO, 0, "/m0").unwrap();
        let t = store
            .fallocate(t, 0, f, size, spec, PlacementPolicy::RoundRobin)
            .unwrap();
        let nchunks = size as usize / CHUNK;
        let bufs: Vec<Vec<u8>> = (0..nchunks).map(ec_pattern).collect();
        let updates: Vec<[(u64, &[u8]); 1]> = bufs.iter().map(|b| [(0u64, b.as_slice())]).collect();
        let batch: Vec<BatchWrite<'_>> = (0..nchunks)
            .map(|idx| BatchWrite {
                file: f,
                idx,
                updates: &updates[idx],
            })
            .collect();
        let ends = store.write_pages_batch(t, 0, &batch).unwrap();
        let mut now = ends.iter().copied().max().unwrap();
        for idx in 0..nchunks {
            let (t2, _) = store.fetch_chunk(now, 0, f, idx).unwrap();
            now = t2;
        }
        let has_parity_keys = cluster
            .stats
            .snapshot()
            .values
            .contains_key("store.parity_encodes");
        report.ran(&cluster);
        (now, has_parity_keys)
    };
    let (t_plain, keys_plain) = run(StripeSpec::all());
    let (t_m0, keys_m0) = run(StripeSpec::all().with_parity(RS_K, 0));
    report.value("m0_write_read_s", t_m0);
    report.check(
        "m=0 is bit-identical to plain striping",
        t_plain == t_m0 && !keys_plain && !keys_m0,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Degraded mode: MM + STREAM through a benefactor failure",
        "fault-tolerance extension (no paper figure; cf. §III-D health tracking)",
    );
    if smoke {
        println!("  [smoke] CI-sized problem\n");
    }
    let n = if smoke { 512 } else { 2048 };
    let elems = if smoke {
        1 << 20
    } else {
        ((2u64 << 30) / SCALE / 8) as usize
    };
    let ec_size = if smoke {
        4u64 * 1024 * 1024
    } else {
        16u64 * 1024 * 1024
    };

    let mut report = JsonReport::new("degraded_mode");
    report
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("victim", VICTIM)
        .config("mm_n", n as u64)
        .config("ec_bytes", ec_size);

    // ---- redundancy overhead on a healthy store ---------------------------
    let (mm_k1, c1) = run_mm_once(n, JobConfig::local(8, 8, 8), None);
    store_health("MM k=1", &c1);
    let (mm_k2, c2) = run_mm_once(n, JobConfig::local(8, 8, 8).with_replicas(2), None);
    store_health("MM k=2", &c2);
    let (mm_rs, crs) = run_mm_once(n, JobConfig::local(8, 8, 8).with_parity(RS_K, RS_M), None);
    store_health("MM rs(4,2)", &crs);
    let mm_overhead =
        100.0 * (mm_k2.stages.total().as_secs_f64() / mm_k1.stages.total().as_secs_f64() - 1.0);
    let mm_rs_overhead =
        100.0 * (mm_rs.stages.total().as_secs_f64() / mm_k1.stages.total().as_secs_f64() - 1.0);

    let (bw_k1, ok_s1, _, cs1) = run_stream_once(1, None, elems);
    store_health("STREAM k=1", &cs1);
    let (bw_k2, ok_s2, stream_time_k2, cs2) = run_stream_once(2, None, elems);
    store_health("STREAM k=2", &cs2);
    let stream_overhead = 100.0 * (bw_k1 / bw_k2 - 1.0);

    let t = Table::new(&[
        ("Workload", 14),
        ("k=1", 10),
        ("k=2", 10),
        ("rs(4,2)", 10),
        ("overhead%", 12),
    ]);
    t.row(&[
        "MM total s".into(),
        secs(mm_k1.stages.total()),
        secs(mm_k2.stages.total()),
        secs(mm_rs.stages.total()),
        format!("{mm_overhead:.1}/{mm_rs_overhead:.1}"),
    ]);
    t.row(&[
        "TRIAD MB/s".into(),
        format!("{bw_k1:.1}"),
        format!("{bw_k2:.1}"),
        "-".into(),
        format!("{stream_overhead:.1}"),
    ]);
    report
        .value("mm_total_s_k1", mm_k1.stages.total())
        .value("mm_total_s_k2", mm_k2.stages.total())
        .value("mm_total_s_rs", mm_rs.stages.total())
        .value("mm_overhead_pct", mm_overhead)
        .value("mm_rs_overhead_pct", mm_rs_overhead)
        .value("triad_mb_s_k1", bw_k1)
        .value("triad_mb_s_k2", bw_k2)
        .value("stream_overhead_pct", stream_overhead)
        .counter(
            "mm_rs_parity_encodes",
            crs.stats.get("store.parity_encodes"),
        )
        .counter("mm_rs_parity_bytes", crs.stats.get("store.parity_bytes"));
    report.check(
        "healthy-store runs verify",
        mm_k1.verified != Some(false)
            && mm_k2.verified != Some(false)
            && mm_rs.verified != Some(false)
            && ok_s1
            && ok_s2,
    );
    report.check("k=2 write path costs extra (MM)", mm_overhead > 0.0);
    report.check(
        "MM writes through RS(4,2) encode parity",
        crs.stats.get("store.parity_encodes") > 0,
    );

    // ---- degraded operation: kill 1 of 8 benefactors mid-run --------------
    println!();
    let crash_at = mm_k2.stages.total() / 3;
    let (mm_f, cf) = run_mm_once(
        n,
        JobConfig::local(8, 8, 8).with_replicas(2),
        Some(crash_at),
    );
    let failovers = cf.stats.get("store.failovers");
    store_health("MM k=2 faulted", &cf);
    println!(
        "  crash of benefactor {VICTIM} at {crash_at}: total {} (fault-free {}), failovers={failovers}",
        secs(mm_f.stages.total()),
        secs(mm_k2.stages.total()),
    );
    report
        .value("mm_total_s_k2_faulted", mm_f.stages.total())
        .counter("mm_faulted_failovers", failovers);
    report.check(
        "faulted k=2 MM completes and verifies",
        mm_f.verified != Some(false),
    );
    report.check("faulted k=2 MM failed over", failovers > 0);
    report.check(
        "degraded run is no faster than fault-free",
        mm_f.stages.total() >= mm_k2.stages.total(),
    );

    // Determinism: the same seeded plan reproduces identical numbers.
    let (mm_f2, cf2) = run_mm_once(
        n,
        JobConfig::local(8, 8, 8).with_replicas(2),
        Some(crash_at),
    );
    report.check(
        "same seed reproduces identical virtual-time totals",
        mm_f.stages.total() == mm_f2.stages.total()
            && failovers == cf2.stats.get("store.failovers"),
    );

    let stream_crash = stream_time_k2 / 2;
    let (bw_f, ok_f, _, csf) = run_stream_once(2, Some(stream_crash), elems);
    store_health("STREAM k=2 faulted", &csf);
    println!("  STREAM k=2 with crash at {stream_crash}: {bw_f:.1} MB/s (fault-free {bw_k2:.1})",);
    report.value("triad_mb_s_k2_faulted", bw_f);
    report.check("faulted k=2 STREAM completes and verifies", ok_f);

    // ---- erasure coding: ablation, crash sweep, repair --------------------
    measure_ec_ablation(&mut report, ec_size);
    demonstrate_rs_crash_sweep(&mut report, ec_size);

    // ---- time-to-repair ---------------------------------------------------
    // The MM job unlinks its files at teardown, so repair is measured on a
    // persistent dataset: a 64 MiB k=2 file, one benefactor lost.
    println!();
    measure_repair(&mut report);

    demonstrate_k1_failure(&mut report);
    m0_identity(&mut report, ec_size);
    for c in [&c1, &c2, &crs, &cs1, &cs2, &cf2, &csf] {
        report.ran(c);
    }
    report.ran(&cf).counters_from(&cf).health_from(&cf).emit();
}

fn measure_repair(report: &mut JsonReport) {
    let cluster = mm_cluster(&JobConfig::local(8, 8, 8));
    let store = &cluster.store;
    let size = 64u64 * 1024 * 1024 / SCALE;
    let (t, f) = store.create_file(VTime::ZERO, 0, "/dataset").unwrap();
    let mut t = store
        .fallocate(
            t,
            0,
            f,
            size,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let page = vec![7u8; 4096];
    let pages_per_chunk = CHUNK / 4096;
    for c in 0..(size as usize / CHUNK) {
        let writes: Vec<(u64, &[u8])> = (0..pages_per_chunk)
            .map(|p| (p as u64 * 4096, page.as_slice()))
            .collect();
        t = store.write_pages(t, 0, f, c, &writes).unwrap();
    }
    store.set_benefactor_alive(chunkstore::BenefactorId(3), false);
    let degraded = store.manager().under_replicated().len();
    let clean_before = store.count_corrupt_copies() == 0;
    let (t_done, repair) = store.repair_under_replicated(t);
    println!(
        "  repair sweep over {} ({degraded} degraded chunks): {} chunks ({}) \
         re-replicated in {}s — degraded window closed",
        simcore::bytes::human(size),
        repair.chunks_repaired,
        simcore::bytes::human(repair.bytes_copied),
        secs(t_done - t),
    );
    store_health("after repair", &cluster);
    report
        .ran(&cluster)
        .value("repair_sweep_s", t_done - t)
        .counter("repair_chunks", repair.chunks_repaired);
    report.check(
        "repair restores full replica degree",
        degraded > 0
            && repair.chunks_repaired == degraded as u64
            && repair.chunks_unrepairable == 0
            && store.manager().under_replicated().is_empty(),
    );
    report.check(
        "repair dataset is CRC-clean before and after the sweep",
        clean_before && store.count_corrupt_copies() == 0,
    );
}
