//! Manager failover: journaled shard metadata + standby takeover.
//!
//! Not a figure from the paper — §III-B runs a single always-up metadata
//! manager — but the robustness follow-up (DESIGN.md §16): what does a
//! manager crash cost once every metadata mutation is journaled and a
//! standby rank can replay the log? Measurements:
//!
//! * **timing neutrality** — the identical write/read sweep with
//!   `ha_standby` on but no fault must be bit-identical in virtual time
//!   to the knobs-off baseline (journaling charges no virtual time);
//! * **zero lost acked writes** — a seeded manager crash between two
//!   acknowledged write batches: the takeover replays the journal and
//!   every byte of every acknowledged write reads back intact;
//! * **time-to-failover** — detection timeout + journal replay, from the
//!   `store.mgr_failover_us` counter;
//! * **sharded takeover** — with a sharded manager, promotion re-points
//!   the crashed shard's endpoint at its standby node and revokes the
//!   shard's outstanding leases (placement-epoch bump).
//!
//! Run with `-- --smoke` for the CI-sized variant; scripts/ledger.sh diffs
//! the knobs-off JSON against a committed expectation, pinning that the
//! HA machinery changes nothing while switched off.

use bench::{header, secs, store_health, JsonReport, Table, SCALE};
use chunkstore::{BatchWrite, ChunkPayload, PlacementPolicy, StoreConfig, StripeSpec};
use cluster::{Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use simcore::VTime;

const CHUNK: usize = 256 * 1024;
const SEED: u64 = 4242;
/// Every HA run raises the retry budget past the failover deadline:
/// the default 2 x 5 ms backoff would give up before the 25 ms takeover.
const RETRIES: u32 = 12;

/// Deterministic per-chunk pattern, distinct across chunks so a replay
/// that resurrects the wrong placement cannot go unnoticed.
fn pattern(idx: usize) -> Vec<u8> {
    (0..CHUNK)
        .map(|i| (i as u8).wrapping_mul(29) ^ (idx as u8).wrapping_mul(151))
        .collect()
}

struct Run {
    /// End of the first (pre-crash) acknowledged write batch.
    write1_end: VTime,
    /// End of the second write batch (rides through the failover).
    write2_end: VTime,
    /// End of the full read-back sweep.
    makespan: VTime,
    /// Bytes that read back different from what was acknowledged.
    wrong: u64,
    cluster: Cluster,
}

/// Write `nchunks` patterned chunks in two acknowledged batches, then
/// read every byte back. With `crash`, a seeded fault plan kills manager
/// rank 0 just after the first batch, so the second batch and the whole
/// read sweep ride through the takeover.
fn failover_sweep(ha: bool, shards: usize, crash: bool, nchunks: usize) -> Run {
    let jc = JobConfig::local(8, 8, 8);
    let cfg = StoreConfig {
        ha_standby: ha,
        manager_shards: shards,
        fetch_retries: RETRIES,
        ..StoreConfig::default()
    };
    let cluster = Cluster::with_configs(
        ClusterSpec::hal().scaled(SCALE),
        &jc.benefactor_nodes(),
        bench::scaled_fuse(SCALE),
        cfg,
    );
    let store = &cluster.store;
    let (t, f) = store.create_file(VTime::ZERO, 0, "/failover").unwrap();
    let t = store
        .fallocate(
            t,
            0,
            f,
            (nchunks * CHUNK) as u64,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    let bufs: Vec<Vec<u8>> = (0..nchunks).map(pattern).collect();
    let updates: Vec<[(u64, &[u8]); 1]> = bufs.iter().map(|b| [(0u64, b.as_slice())]).collect();
    let batch: Vec<BatchWrite<'_>> = (0..nchunks)
        .map(|idx| BatchWrite {
            file: f,
            idx,
            updates: &updates[idx],
        })
        .collect();
    let half = nchunks / 2;
    let ends = store.write_pages_batch(t, 0, &batch[..half]).unwrap();
    let write1_end = ends.iter().copied().max().unwrap();
    if crash {
        cluster.attach_faults(
            FaultPlanBuilder::new(SEED)
                .mgr_crash(write1_end + VTime::from_micros(10), 0)
                .build(),
        );
    }
    let ends = store
        .write_pages_batch(write1_end, 0, &batch[half..])
        .unwrap();
    let write2_end = ends.iter().copied().max().unwrap();
    let mut now = write2_end;
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
    Run {
        write1_end,
        write2_end,
        makespan: now,
        wrong,
        cluster,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Manager failover: journaled metadata + standby takeover",
        "robustness extension (DESIGN.md §16; no paper figure)",
    );
    if smoke {
        println!("  [smoke] CI-sized problem\n");
    }
    let nchunks = if smoke { 16 } else { 64 };

    let mut report = JsonReport::new("mgr_failover");
    report
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("chunks", nchunks as u64)
        .config("chunk_bytes", CHUNK as u64)
        .config("seed", SEED);
    // Knobs-off sub-report: scripts/ledger.sh diffs this against a
    // committed expectation — the journaling and failover machinery must
    // not move a single virtual nanosecond while switched off.
    let mut serial = JsonReport::new("mgr_failover_serial");
    serial
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("chunks", nchunks as u64);

    // ---- knobs-off baseline (the committed expectation) -------------------
    let a = failover_sweep(false, 0, false, nchunks);
    store_health("knobs off", &a.cluster);
    serial
        .value("write_s", a.write2_end)
        .value("makespan_s", a.makespan);
    serial.check("knobs-off sweep verifies every byte", a.wrong == 0);
    serial.check(
        "ha off registers no journal or failover counters",
        !a.cluster
            .stats
            .snapshot()
            .values
            .contains_key("store.journal_records"),
    );

    // ---- ha on, no fault: journaling must be timing-neutral ---------------
    let b = failover_sweep(true, 0, false, nchunks);
    store_health("ha idle", &b.cluster);
    let idle_records = b.cluster.stats.get("store.journal_records");
    report
        .value("idle_makespan_s", b.makespan)
        .counter("idle_journal_records", idle_records);
    report.check(
        "journaling is timing-neutral: ha-on run is bit-identical to knobs-off",
        a.write1_end == b.write1_end
            && a.write2_end == b.write2_end
            && a.makespan == b.makespan
            && b.wrong == 0,
    );
    report.check(
        "every acknowledged placement journaled a record",
        idle_records >= nchunks as u64,
    );

    // ---- seeded mid-run crash: zero lost acked writes ---------------------
    let c = failover_sweep(true, 0, true, nchunks);
    let failovers = c.cluster.stats.get("store.mgr_failovers");
    let replays = c.cluster.stats.get("store.journal_replays");
    let failover_us = c.cluster.stats.get("store.mgr_failover_us");
    store_health("ha faulted", &c.cluster);
    println!(
        "  manager crash after first batch: {} wrong bytes, takeover in {failover_us} us \
         ({replays} replay), done at {} (fault-free {})",
        c.wrong,
        secs(c.makespan),
        secs(b.makespan),
    );
    report
        .value("faulted_makespan_s", c.makespan)
        .counter("mgr_failovers", failovers)
        .counter("journal_replays", replays)
        .counter("time_to_failover_us", failover_us)
        .counter(
            "faulted_journal_records",
            c.cluster.stats.get("store.journal_records"),
        );
    report.check(
        "seeded mid-run manager crash loses zero acknowledged writes",
        c.wrong == 0 && failovers == 1,
    );
    report.check("takeover replayed the journal exactly once", replays == 1);
    report.check(
        "time-to-failover covers the 25 ms detection timeout",
        failover_us >= 25_000,
    );
    report.check(
        "faulted run is no faster than fault-free",
        c.makespan >= b.makespan,
    );

    // Determinism: the same seeded plan reproduces identical numbers.
    let c2 = failover_sweep(true, 0, true, nchunks);
    report.check(
        "same seed reproduces the identical failover",
        c.makespan == c2.makespan
            && c2.wrong == 0
            && failover_us == c2.cluster.stats.get("store.mgr_failover_us"),
    );

    // ---- sharded manager: promotion re-points the endpoint ----------------
    // Shard 0 lives on benefactor node 0 with its standby on node 1 (the
    // cluster wires standby k to benefactor k+1); after the crash the
    // endpoint must move and the shard's leases must be revoked.
    let d = failover_sweep(true, 2, true, nchunks);
    store_health("sharded ha faulted", &d.cluster);
    let d_failovers = d.cluster.stats.get("store.mgr_failovers");
    let d_revokes = d.cluster.stats.get("store.lease_revokes");
    report
        .value("sharded_faulted_makespan_s", d.makespan)
        .counter("sharded_mgr_failovers", d_failovers)
        .counter("sharded_lease_revokes", d_revokes);
    report.check(
        "sharded crash loses zero acknowledged writes",
        d.wrong == 0 && d_failovers == 1,
    );
    report.check(
        "promotion re-points shardmgr/0 at the standby node",
        d.cluster.net.endpoint_node("shardmgr/0") == Some(1),
    );
    report.check("takeover revokes the crashed shard's leases", d_revokes > 0);

    if !smoke {
        // Shard-count sweep for the failover table in EXPERIMENTS.md.
        println!();
        println!("  failover cost by manager shard count:");
        let t = Table::new(&[
            ("shards", 8),
            ("failover us", 12),
            ("journal recs", 13),
            ("replays", 9),
            ("makespan s", 12),
        ]);
        for shards in [0usize, 2, 4] {
            let r = failover_sweep(true, shards, true, nchunks);
            t.row(&[
                if shards == 0 {
                    "serial".into()
                } else {
                    format!("{shards}")
                },
                format!("{}", r.cluster.stats.get("store.mgr_failover_us")),
                format!("{}", r.cluster.stats.get("store.journal_records")),
                format!("{}", r.cluster.stats.get("store.journal_replays")),
                secs(r.makespan),
            ]);
            report.value(
                &format!("sweep_failover_us_shards_{shards}"),
                r.cluster.stats.get("store.mgr_failover_us") as f64,
            );
            assert_eq!(r.wrong, 0, "lost acked writes at {shards} shards");
        }
    }

    report
        .counters_from(&c.cluster)
        .health_from(&c.cluster)
        .emit();
    serial.emit();
}
