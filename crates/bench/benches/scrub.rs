//! End-to-end chunk integrity under bit rot (DESIGN.md §11) — verified
//! reads, replica repair and the background scrub daemon.
//!
//! Not a paper figure: the paper's SSDs are assumed faithful. This bench
//! answers what that assumption costs to drop. Four measurements:
//!
//! * zero-wrong-reads — STREAM TRIAD at paper scale with one benefactor's
//!   chunks bit-rotted mid-run: at k=2 every read fails over to the
//!   intact replica and the run's self-verification passes; at k=1 the
//!   store returns a deterministic `ChunkCorrupt` error, never bad bytes;
//! * time-to-repair — a rotted persistent dataset scrubbed clean in the
//!   background, measured in virtual time and scrub passes;
//! * quarantine — a benefactor whose media corrupts every write crosses
//!   the scrub threshold and stops receiving new placements;
//! * overhead ablation — checksums and the scrub daemon on a healthy
//!   store cost the foreground clock nothing (exact equality), and
//!   traced runs stay bit-identical to untraced ones.
//!
//! Run with `-- --smoke` for the CI-sized variant; scripts/ledger.sh diffs
//! its knobs-off JSON against a committed expectation, pinning that the
//! integrity machinery changes nothing while switched off.

use bench::{header, scaled_fuse, secs, store_health, stream_fuse, JsonReport, Table, SCALE};
use chunkstore::{
    BenefactorId, PlacementPolicy, ScrubConfig, Slot, StoreConfig, StoreError, StripeSpec,
};
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use simcore::VTime;
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

/// The benefactor whose SSD rots (all of its chunks, so failover is
/// exercised on every read that lands there).
const ROT: usize = 0;
const ROT_RATE_BP: u32 = 10_000;

/// The daemon pacing used for the STREAM runs: an 8-chunk pass every
/// 250 ms of idle time — a few percent of one SSD's bandwidth.
fn stream_scrub() -> ScrubConfig {
    ScrubConfig {
        interval: VTime::from_millis(250),
        chunks_per_pass: 8,
        ..ScrubConfig::default()
    }
}

struct StreamOutcome {
    bw: f64,
    verified: bool,
    time: VTime,
    cluster: Cluster,
}

/// One STREAM TRIAD run, all arrays on the store. `rot_at` injects the
/// bit-rot plan; `scrub` attaches the daemon from t=0.
fn stream_once(
    replicas: usize,
    verify: bool,
    rot_at: Option<VTime>,
    scrub: bool,
    traced: bool,
    elems: usize,
) -> StreamOutcome {
    let cfg = JobConfig::remote(8, 1, 2).with_replicas(replicas);
    let store_cfg = StoreConfig {
        verify_reads: verify,
        ..StoreConfig::default()
    };
    let spec = ClusterSpec::hal().scaled(SCALE);
    let cluster = if traced {
        Cluster::with_obs(
            spec,
            &cfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
            store_cfg,
        )
    } else {
        Cluster::with_configs(
            spec,
            &cfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
            store_cfg,
        )
    };
    if let Some(at) = rot_at {
        cluster.attach_faults(
            FaultPlanBuilder::new(4242)
                .bit_rot(at, ROT, ROT_RATE_BP)
                .build(),
        );
    }
    if scrub {
        cluster.store.attach_scrub(stream_scrub(), VTime::ZERO);
    }
    let scfg = StreamConfig::new(elems).place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let r = run_stream(
        &cluster,
        &cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    StreamOutcome {
        bw: r.bandwidth_mb_s,
        verified: r.verified,
        time: r.time,
        cluster,
    }
}

/// k=1 has no intact replica to fail over to: show the documented
/// deterministic refusal instead of a wrong-data read.
fn demonstrate_k1_corruption(report: &mut JsonReport) {
    let run = || {
        let cfg = JobConfig::remote(8, 1, 2);
        let cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
            StoreConfig {
                verify_reads: true,
                ..StoreConfig::default()
            },
        );
        let store = &cluster.store;
        let (t, f) = store.create_file(VTime::ZERO, 0, "/unreplicated").unwrap();
        let mut t = store
            .fallocate(
                t,
                0,
                f,
                8 * 256 * 1024,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let page = vec![1u8; 4096];
        for idx in 0..8 {
            t = store.write_pages(t, 0, f, idx, &[(0, &page)]).unwrap();
        }
        cluster.attach_faults(
            FaultPlanBuilder::new(4242)
                .bit_rot(t, ROT, ROT_RATE_BP)
                .build(),
        );
        // The slot whose sole copy lives on the rotted benefactor.
        let idx = {
            let mgr = store.manager();
            let meta = mgr.file(f).unwrap();
            meta.slots
                .iter()
                .position(|s| match s {
                    Slot::Chunk(c) => mgr.chunk_homes(*c).unwrap()[0] == BenefactorId(ROT),
                    _ => false,
                })
                .expect("round-robin places a chunk on every benefactor")
        };
        let err = store
            .fetch_chunk(t + VTime::from_micros(1), 0, f, idx)
            .unwrap_err();
        (err, cluster.stats.get("store.crc_mismatches"))
    };
    let (err, mismatches) = run();
    let (err2, mismatches2) = run();
    println!("  k=1 after bit rot: read fails with `{err}` (no silent corruption)");
    report.check(
        "k=1 rot surfaces as ChunkCorrupt naming the bad copy",
        matches!(err, StoreError::ChunkCorrupt { benefactor, .. } if benefactor == BenefactorId(ROT)),
    );
    report.check(
        "k=1 rot outcome is seed-deterministic",
        err == err2 && mismatches == mismatches2 && mismatches > 0,
    );
}

/// Rot a persistent k=2 dataset, then let the scrub daemon clean it up:
/// virtual time from injection to the last repaired copy.
fn measure_scrub_repair(report: &mut JsonReport) {
    let cfg = JobConfig::remote(8, 1, 2);
    let cluster = Cluster::with_configs(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        stream_fuse(SCALE, 8),
        StoreConfig {
            verify_reads: true,
            ..StoreConfig::default()
        },
    );
    let store = &cluster.store;
    let size = 16u64 * 1024 * 1024;
    let chunk = 256 * 1024usize;
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
    let pages_per_chunk = chunk / 4096;
    for c in 0..(size as usize / chunk) {
        let writes: Vec<(u64, &[u8])> = (0..pages_per_chunk)
            .map(|p| (p as u64 * 4096, page.as_slice()))
            .collect();
        t = store.write_pages(t, 0, f, c, &writes).unwrap();
    }
    let scrub = ScrubConfig {
        interval: VTime::from_millis(1),
        chunks_per_pass: 64,
        ..ScrubConfig::default()
    };
    cluster.attach_faults(
        FaultPlanBuilder::new(7)
            .bit_rot(t, ROT, ROT_RATE_BP)
            .build(),
    );
    // Apply the rot and take the "before" census, *then* start the
    // daemon — attaching first would let the kick inside this poll repair
    // everything before the census.
    store.poll_faults(t + VTime::from_micros(1));
    let corrupt0 = store.count_corrupt_copies();
    store.attach_scrub(scrub, t);
    let mut now = t;
    let mut polls = 0u64;
    while store.count_corrupt_copies() > 0 && polls < 100_000 {
        now += scrub.interval;
        store.poll_faults(now);
        polls += 1;
    }
    let passes = cluster.stats.get("store.scrub_passes");
    let repairs = cluster.stats.get("store.scrub_repairs");
    println!(
        "  scrub over {} ({corrupt0} rotted copies): clean after {}s of background \
         scrubbing ({passes} passes, {repairs} repairs) — foreground clock untouched",
        simcore::bytes::human(size),
        secs(now - t),
    );
    store_health("after scrub", &cluster);
    report
        .value("scrub_dataset_bytes", size as f64)
        .value("scrub_rotted_copies", corrupt0 as f64)
        .value("scrub_time_to_repair_s", now - t)
        .counter("scrub_passes", passes)
        .counter("scrub_repairs", repairs);
    report.check(
        "scrub daemon repairs every rotted copy from replicas",
        corrupt0 > 0
            && store.count_corrupt_copies() == 0
            && repairs >= corrupt0 as u64
            && store.manager().under_replicated().is_empty(),
    );
}

/// A benefactor whose media corrupts every write it takes: the scrub
/// daemon quarantines it and placement stops choosing it.
fn demonstrate_quarantine(report: &mut JsonReport) {
    // 8 benefactors so placement has somewhere else to go once the
    // corrupter is fenced off.
    let cfg = JobConfig::local(8, 8, 8);
    let cluster = Cluster::with_configs(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        scaled_fuse(SCALE),
        StoreConfig {
            verify_reads: true,
            ..StoreConfig::default()
        },
    );
    let store = &cluster.store;
    cluster.attach_faults(
        FaultPlanBuilder::new(13)
            .corruption_rate(VTime::ZERO, ROT, 10_000)
            .build(),
    );
    let (t, f) = store.create_file(VTime::from_micros(1), 0, "/hot").unwrap();
    let mut t = store
        .fallocate(
            t,
            0,
            f,
            64 * 256 * 1024,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let page = vec![2u8; 4096];
    for idx in 0..64 {
        t = store.write_pages(t, 0, f, idx, &[(0, &page)]).unwrap();
    }
    store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(1),
            chunks_per_pass: 128,
            ..ScrubConfig::default()
        },
        t,
    );
    store.poll_faults(t + VTime::from_millis(1));
    let quarantined = store
        .manager()
        .benefactor(BenefactorId(ROT))
        .is_quarantined();
    println!(
        "  benefactor {ROT} (corrupts every write): quarantined={quarantined} after one \
         scrub pass; new stripes avoid it"
    );
    let (t2, g) = store
        .create_file(t + VTime::from_millis(2), 0, "/new")
        .unwrap();
    store
        .fallocate(
            t2,
            0,
            g,
            4 * 256 * 1024,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let excluded = !store
        .manager()
        .file(g)
        .unwrap()
        .stripe
        .contains(&BenefactorId(ROT));
    report
        .counter("quarantined", cluster.stats.get("store.quarantined"))
        .check(
            "scrub quarantines a persistently corrupting benefactor",
            quarantined && cluster.stats.get("store.quarantined") == 1,
        )
        .check("placement avoids the quarantined benefactor", excluded);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Chunk integrity: bit rot vs checksums, replicas and the scrub daemon",
        "robustness extension (no paper figure; cf. \u{a7}III-D health tracking)",
    );
    if smoke {
        println!("  [smoke] CI-sized problem\n");
    }
    let elems = if smoke {
        1 << 20
    } else {
        ((2u64 << 30) / SCALE / 8) as usize
    };

    let mut report = JsonReport::new("scrub");
    report
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("elems", elems as u64)
        .config("rot_benefactor", ROT as u64)
        .config("rot_rate_bp", ROT_RATE_BP as u64);
    // Knobs-off sub-report: scripts/ledger.sh diffs this against a
    // committed expectation — checksum bookkeeping must not move a single
    // virtual nanosecond while verification and scrubbing are off.
    let mut serial = JsonReport::new("scrub_serial");
    serial.config("smoke", smoke).config("scale", SCALE);

    // ----- baselines: knobs off vs verification on (healthy store) -----
    let base_k1 = stream_once(1, false, None, false, false, elems);
    let base_k2 = stream_once(2, false, None, false, false, elems);
    serial.value("stream_k1_s", base_k1.time.as_secs_f64());
    serial.value("stream_k2_s", base_k2.time.as_secs_f64());
    let verif_k2 = stream_once(2, true, None, false, false, elems);
    let scrubbed_k2 = stream_once(2, true, None, true, false, elems);
    report
        .value("stream_k1_s", base_k1.time.as_secs_f64())
        .value("stream_k2_s", base_k2.time.as_secs_f64())
        .value("stream_k2_verify_s", verif_k2.time.as_secs_f64())
        .value("stream_k2_verify_scrub_s", scrubbed_k2.time.as_secs_f64());
    let scrub_overhead =
        100.0 * (scrubbed_k2.time.as_secs_f64() / verif_k2.time.as_secs_f64() - 1.0);
    report.value("scrub_overhead_pct", scrub_overhead);
    report.check(
        "healthy-store runs verify",
        base_k1.verified && base_k2.verified && verif_k2.verified && scrubbed_k2.verified,
    );
    report.check(
        "ablation: checksum verification is free on a clean store",
        verif_k2.time == base_k2.time,
    );
    report.check(
        "ablation: background scrubbing costs the foreground < 10%",
        scrub_overhead < 10.0,
    );

    // ----- zero wrong reads under bit rot at k=2 ------------------------
    // First without the daemon, so every rotted chunk is discovered by a
    // *foreground* verified read and must fail over; then with the
    // daemon, which races ahead of the reader and repairs in background.
    println!();
    let rot_at = base_k2.time / 3;
    let rotted = stream_once(2, true, Some(rot_at), false, false, elems);
    let s = &rotted.cluster.stats;
    let mismatches = s.get("store.crc_mismatches");
    let degraded = s.get("store.degraded_reads");
    store_health("STREAM k=2 rotted", &rotted.cluster);
    println!(
        "  bit rot on benefactor {ROT} at {}: run completes at {} \
         (fault-free {}), every read verified",
        secs(rot_at),
        secs(rotted.time),
        secs(base_k2.time),
    );
    report
        .value("stream_k2_rotted_s", rotted.time.as_secs_f64())
        .value("triad_mb_s_rotted", rotted.bw)
        .counter("rotted_crc_mismatches", mismatches)
        .counter("rotted_degraded_reads", degraded);
    report.check(
        "zero wrong reads: rotted k=2 STREAM completes and verifies",
        rotted.verified,
    );
    report.check("rot was actually hit (mismatches observed)", mismatches > 0);
    report.check(
        "rotted reads are counted as degraded",
        degraded >= mismatches,
    );
    report.check(
        "degraded run is no faster than fault-free",
        rotted.time >= base_k2.time,
    );

    let rotted_scrubbed = stream_once(2, true, Some(rot_at), true, false, elems);
    let bg_repairs = rotted_scrubbed.cluster.stats.get("store.scrub_repairs");
    store_health("STREAM k=2 rotted+scrub", &rotted_scrubbed.cluster);
    report
        .value(
            "stream_k2_rotted_scrub_s",
            rotted_scrubbed.time.as_secs_f64(),
        )
        .counter("rotted_scrub_repairs", bg_repairs);
    report.check(
        "rotted k=2 STREAM with the daemon verifies and repairs in background",
        rotted_scrubbed.verified && bg_repairs > 0,
    );

    // Determinism: the same seeded plan reproduces identical numbers, and
    // tracing must not move the clock.
    let rotted2 = stream_once(2, true, Some(rot_at), true, false, elems);
    let traced = stream_once(2, true, Some(rot_at), true, true, elems);
    report.check(
        "same seed reproduces identical virtual-time totals",
        rotted_scrubbed.time == rotted2.time
            && rotted_scrubbed.cluster.stats.get("store.crc_mismatches")
                == rotted2.cluster.stats.get("store.crc_mismatches"),
    );
    report.check(
        "traced and untraced rotted runs are bit-identical",
        traced.time == rotted_scrubbed.time,
    );
    report.check(
        "traced: store.scrub spans recorded",
        traced
            .cluster
            .trace
            .spans()
            .iter()
            .any(|sp| sp.name == "store.scrub"),
    );

    let t = Table::new(&[("Config", 22), ("Time (s)", 10), ("Outcome", 30)]);
    t.row(&["k=2 clean".into(), secs(base_k2.time), "baseline".into()]);
    t.row(&[
        "k=2 verify".into(),
        secs(verif_k2.time),
        "identical (checksums are free)".into(),
    ]);
    t.row(&[
        "k=2 verify+scrub".into(),
        secs(scrubbed_k2.time),
        format!("+{scrub_overhead:.1}% (daemon duty cycle)"),
    ]);
    t.row(&[
        "k=2 verify+rot".into(),
        secs(rotted.time),
        format!("verified, {mismatches} mismatches"),
    ]);
    t.row(&[
        "k=2 verify+scrub+rot".into(),
        secs(rotted_scrubbed.time),
        format!("verified, {bg_repairs} bg repairs"),
    ]);
    t.row(&[
        "k=1 rot".into(),
        "-".into(),
        "deterministic ChunkCorrupt".into(),
    ]);
    println!();

    // ----- time-to-repair, quarantine, k=1 ------------------------------
    measure_scrub_repair(&mut report);
    demonstrate_quarantine(&mut report);
    demonstrate_k1_corruption(&mut report);

    report.obs_from(&traced.cluster.trace.footer(10));
    report
        .counters_from(&rotted_scrubbed.cluster)
        .health_from(&rotted_scrubbed.cluster)
        .emit();
    serial.emit();
}
