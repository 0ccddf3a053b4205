//! High-fan-in placement traffic: serial manager vs. sharded manager
//! (DESIGN.md §12) — the ISSUE 6 tentpole experiment.
//!
//! Hundreds of client ranks slam the placement manager at once: a
//! barrier-synchronized per-rank write burst (one manager write RPC per
//! flushed chunk) followed by a hot read phase whose first pass resolves
//! every chunk through the manager and whose second pass rides the
//! `LocationCache`. The serial manager (`shards=0`) charges
//! no CPU queueing — the pre-sharding cost model — while `shards>=1` puts
//! a FIFO CPU in front of every shard rank.
//!
//! Expected shape: makespan stays roughly flat going serial → 1 shard
//! (same node, same transfers; the only new cost is honest queueing),
//! and the RPC p99 collapses near-linearly at 4 and 8 shards (~2.4x and
//! ~4.3x at this seed — the haircut vs. ideal is instantaneous hash
//! imbalance idling underloaded shards mid-burst). Client-visible bytes
//! are identical at every shard count.
//!
//! Run with `-- --smoke` for the CI-sized variant: a strictly serial
//! single-rank workload run against both managers, whose virtual times,
//! outputs and counters must be *bit-identical* (scripts/ledger.sh diffs
//! the emitted JSON, smoke counters included, against a committed
//! expectation).

use bench::{check, header, secs, store_for, store_health, JsonReport, Table, SCALE};
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig, JobEnv};
use fusemm::FuseConfig;
use obs::{critical_path, CritPath, GaugeSeries};
use simcore::{ProcCtx, VTime};

/// u64 elements per 256 KiB chunk.
const CHUNK_ELEMS: usize = 32 * 1024;
/// Chunks each rank writes and re-reads.
const CHUNKS_PER_RANK: usize = 8;

/// A small mount cache (2 chunks, no read-ahead): per-rank working sets
/// thrash it, so the read phase actually reaches the store and exercises
/// placement resolution instead of the node-local page cache. The
/// pipelined data path is on — that is the path that resolves placement
/// through the `LocationCache`.
fn fuse() -> FuseConfig {
    FuseConfig {
        cache_bytes: 2 * 256 * 1024,
        read_ahead_chunks: 0,
        pipelined_io: true,
        ..FuseConfig::default()
    }
}

/// The job's store configuration: the shard count from the job, plus a
/// heavier per-op manager CPU (50 us vs the default 10 us) so the
/// placement manager — not the SSDs — is the saturated resource during
/// the bursts. That is the regime the sharded manager exists for.
fn store(cfg: &JobConfig) -> chunkstore::StoreConfig {
    chunkstore::StoreConfig {
        mgr_cpu: VTime::from_micros(50),
        ..store_for(cfg)
    }
}

/// The per-rank workload, shared by the sweep and the smoke run.
fn fan_in_body(ctx: &mut ProcCtx, env: &JobEnv) -> u64 {
    // Stagger the namespace ops (create/fallocate/open are root-shard
    // traffic by design): the fan-in under test is slot-addressed
    // placement traffic, not an allocation storm.
    ctx.advance(VTime::from_micros(200 * env.rank as u64));
    let v = env
        .client
        .ssdmalloc_shared::<u64>(
            ctx,
            &format!("r{}", env.rank),
            CHUNKS_PER_RANK * CHUNK_ELEMS,
        )
        .unwrap();
    env.comm.barrier(ctx, env.rank);
    // Synchronized write burst: every rank dirties one chunk at a time
    // and flushes, so each flush is one manager write RPC — all ranks at
    // once, straight into the owning shard's FIFO.
    for c in 0..CHUNKS_PER_RANK {
        v.set(ctx, c * CHUNK_ELEMS, (env.rank + c) as u64).unwrap();
        v.flush(ctx).unwrap();
    }
    env.comm.barrier(ctx, env.rank);
    // Hot read phase, two passes over the same chunks: pass 1 resolves
    // placement through the manager, pass 2 re-fetches evicted chunks
    // through the LocationCache without a manager round-trip.
    let mut sum = 0u64;
    for pass in 0..2 {
        for c in 0..CHUNKS_PER_RANK {
            sum += v.get(ctx, c * CHUNK_ELEMS + pass * 512).unwrap();
        }
    }
    // A compute tail (~0.5 virtual s) so the metadata bursts sit inside a
    // realistically compute-heavy job: manager queueing then shows up as
    // RPC-latency spikes, not as a wholesale makespan blowup.
    env.compute(ctx, 1.2e9);
    sum
}

struct SweepRow {
    label: String,
    shards: usize,
    outputs: Vec<u64>,
    makespan: VTime,
    p50_us: f64,
    p99_us: f64,
    mgr_rpcs: u64,
    loc_hits: u64,
    net_bytes: u64,
    /// Share of the critical path spent in shard-manager CPU (permille).
    /// This is the tentpole acceptance signal: extra shards must shrink
    /// it, even where the makespan barely moves.
    mgr_cpu_permille: u64,
    critpath: Option<CritPath>,
    series: Vec<GaugeSeries>,
}

/// One causally-traced run of the 256-rank fan-in job at a given shard
/// count (0 = the serial manager).
fn sweep_run(shards: usize) -> SweepRow {
    // The fan-in testbed: HAL's interconnect and SSDs, but denser client
    // nodes (16 ranks per node × 16 nodes = 256 ranks) — the regime the
    // paper's extreme-scale argument is about.
    let mut spec = ClusterSpec::hal().scaled(SCALE);
    spec.cores_per_node = 16;
    let cfg = JobConfig::local(16, 16, 16).with_manager_shards(shards);
    let cluster = Cluster::with_obs_causal(spec, &cfg.benefactor_nodes(), fuse(), store(&cfg));
    let result = run_job(&cluster, &cfg, Calibration::default(), fan_in_body);
    let footer = cluster.trace.footer(10);
    let (p50_us, p99_us) = footer
        .hist("lat.store.mgr_rpc")
        .map(|h| (h.p50_ns as f64 / 1e3, h.p99_ns as f64 / 1e3))
        .unwrap_or((0.0, 0.0));
    store_health(&cfg.label(), &cluster);
    let s = &cluster.stats;
    let makespan = result.makespan();
    let critpath = critical_path(&cluster.trace, Some(makespan));
    let mgr_cpu_permille = critpath
        .as_ref()
        .map_or(0, |cp| cp.share_permille("mgr_cpu"));
    SweepRow {
        label: cfg.label(),
        shards,
        outputs: result.outputs,
        makespan,
        p50_us,
        p99_us,
        mgr_rpcs: s.get("store.mgr_rpcs"),
        loc_hits: s.get("store.loc_cache_hits"),
        net_bytes: s.get("net.bytes"),
        mgr_cpu_permille,
        critpath,
        series: cluster.sampler.series(),
    }
}

/// Counters that must agree exactly between the serial manager and a
/// single co-located shard on a strictly serial workload.
const SMOKE_COUNTERS: [&str; 9] = [
    "store.mgr_rpcs",
    "store.mgr_rpc_fetch",
    "store.mgr_rpc_write",
    "store.mgr_rpc_place",
    "store.loc_cache_hits",
    "store.loc_cache_misses",
    "store.chunk_fetches",
    "net.messages",
    "net.bytes",
];

/// The CI-sized serial workload: one rank, one benefactor, one (or zero)
/// shards — no concurrent RPCs, so `shards=1` must be bit-identical.
fn smoke_run(shards: usize) -> (Vec<u64>, VTime, Vec<u64>, u64) {
    let cfg = JobConfig::local(1, 1, 1).with_manager_shards(shards);
    let cluster = Cluster::with_configs(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        fuse(),
        store(&cfg),
    );
    let result = run_job(&cluster, &cfg, Calibration::default(), fan_in_body);
    let counters = SMOKE_COUNTERS
        .iter()
        .map(|k| cluster.stats.get(k))
        .collect();
    // host-speed volume: the co-located smoke moves no *network* bytes,
    // so count the store's client-facing payload instead
    let vol =
        cluster.stats.get("store.bytes_to_clients") + cluster.stats.get("store.bytes_from_clients");
    let makespan = result.makespan();
    (result.outputs, makespan, counters, vol)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Fan-in placement traffic: serial vs sharded manager",
        "ISSUE 6 tentpole (no paper counterpart)",
    );

    // ----- serial bit-identity (always runs; this is the CI gate) -------
    let (out0, span0, counters0, vol0) = smoke_run(0);
    let (out1, span1, counters1, vol1) = smoke_run(1);
    let identical = out0 == out1 && span0 == span1 && counters0 == counters1;

    // The hot path hit the location cache.
    let cached = counters0[4] >= 1; // store.loc_cache_hits

    if smoke {
        println!("  [smoke] serial bit-identity gate only (1 rank, 1 benefactor)\n");
        let mut report = JsonReport::new("fan_in");
        report.host_bytes(vol0 + vol1); // client-facing payload, both runs
        report
            .config("smoke", true)
            .config("scale", SCALE)
            .config("chunks_per_rank", CHUNKS_PER_RANK);
        report.time("serial_makespan_s", span0);
        report.value("serial_sum", out0.iter().sum::<u64>());
        for (k, v) in SMOKE_COUNTERS.iter().zip(&counters0) {
            report.counter(k, *v);
        }
        report.check("shards=1 bit-identical to the serial manager", identical);
        report.check("hot path hit the location cache", cached);
        report.emit();
        return;
    }

    // ----- the 256-rank sweep -------------------------------------------
    println!("  256 ranks, {CHUNKS_PER_RANK} chunks/rank, barrier-synchronized bursts\n");
    let rows: Vec<SweepRow> = [0usize, 1, 2, 4, 8].iter().map(|&s| sweep_run(s)).collect();
    println!();

    let t = Table::new(&[
        ("Config", 20),
        ("Makespan (s)", 13),
        ("RPC p50 (us)", 13),
        ("RPC p99 (us)", 13),
        ("Mgr RPCs", 9),
        ("LocHits", 8),
        ("MgrCPU\u{2030}", 8),
    ]);
    for r in &rows {
        t.row(&[
            r.label.clone(),
            secs(r.makespan),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            r.mgr_rpcs.to_string(),
            r.loc_hits.to_string(),
            r.mgr_cpu_permille.to_string(),
        ]);
    }
    println!();

    let mut report = JsonReport::new("fan_in");
    report.host_bytes(rows.iter().map(|r| r.net_bytes).sum::<u64>());
    report
        .config("smoke", false)
        .config("scale", SCALE)
        .config("ranks", 256usize)
        .config("chunks_per_rank", CHUNKS_PER_RANK)
        .config("shard_counts", "0,1,2,4,8");
    for r in &rows {
        let key = if r.shards == 0 {
            "serial".to_string()
        } else {
            format!("s{}", r.shards)
        };
        report.time(&format!("{key}_makespan_s"), r.makespan);
        report.value(&format!("{key}_rpc_p50_us"), r.p50_us);
        report.value(&format!("{key}_rpc_p99_us"), r.p99_us);
        report.counter(&format!("{key}_mgr_rpcs"), r.mgr_rpcs);
        report.counter(&format!("{key}_loc_cache_hits"), r.loc_hits);
        report.value(
            &format!("{key}_critpath_mgrcpu_permille"),
            r.mgr_cpu_permille,
        );
    }

    let by = |s: usize| rows.iter().find(|r| r.shards == s).unwrap();
    let (legacy, s1, s2, s4, s8) = (by(0), by(1), by(2), by(4), by(8));
    report.check(
        "client-visible bytes identical at every shard count",
        rows.iter().all(|r| r.outputs == legacy.outputs),
    );
    report.check(
        "serial -> 1 shard stays ~flat: makespan within 15% (queueing only)",
        s1.makespan.as_secs_f64() <= legacy.makespan.as_secs_f64() * 1.15,
    );
    report.check(
        "makespan monotone non-increasing with shard count",
        s2.makespan <= s1.makespan && s4.makespan <= s2.makespan && s8.makespan <= s4.makespan,
    );
    // Tail-latency scaling. The burst is closed-loop (each rank keeps at
    // most a fetch and an overlapped write-back in flight), so the p99 is
    // the peak shard backlog. Hashing spreads the keys but cannot balance
    // *instantaneous* load: a shard that falls behind keeps its queue
    // while underloaded shards idle, so the measured tail improvement is
    // near-linear with a predictable haircut (deterministic at this seed:
    // ~1.5x at 2 shards, ~2.4x at 4, ~4.3x at 8). Thresholds sit just
    // under measured so a real routing or caching regression trips them.
    report.check(
        "RPC p99 improves near-linearly at 4 shards (>= 2.2x vs 1 shard)",
        s4.p99_us > 0.0 && s1.p99_us / s4.p99_us >= 2.2,
    );
    report.check(
        "RPC p99 improves near-linearly at 8 shards (>= 4.0x vs 1 shard)",
        s8.p99_us > 0.0 && s1.p99_us / s8.p99_us >= 4.0,
    );
    report.check(
        "the location cache eliminated manager round-trips (loc hits > 0)",
        rows.iter()
            .filter(|r| r.shards >= 1)
            .all(|r| r.loc_hits > 0),
    );
    // The tentpole acceptance signal: shard-manager CPU time *on the
    // critical path* shrinks as shards are added, 1 -> 4 -> 8, even
    // though the compute-heavy makespan barely moves — that is exactly
    // the attribution the causal tracer exists to make visible.
    report.check(
        "critical-path mgr_cpu share shrinks with shards (1 -> 4 -> 8)",
        s4.mgr_cpu_permille <= s1.mgr_cpu_permille
            && s8.mgr_cpu_permille <= s4.mgr_cpu_permille
            && s8.mgr_cpu_permille < s1.mgr_cpu_permille,
    );
    report.check(
        "metrics sampler recorded gauge series on every run",
        rows.iter().all(|r| !r.series.is_empty()),
    );
    check(
        "smoke serial gate also passed inside the full run",
        identical && cached,
    );

    // The 8-shard run's critical path and gauge series go into the
    // report footer: the most sharded configuration is where per-shard
    // queue-depth series and the residual mgr_cpu share are informative.
    if let Some(cp) = &s8.critpath {
        report.critical_path_from(cp);
    }
    report.series_from(&s8.series);

    report.emit();
}
