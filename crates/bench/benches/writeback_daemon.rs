//! Write-back daemon ablation (DESIGN.md §10) — demand eviction vs
//! background flushing.
//!
//! Not a paper experiment: this measures what the write-back subsystem
//! buys. The centerpiece is a *full-cache dirty workload* — STREAM TRIAD
//! with all three arrays on the store, so every iteration dirties A's
//! chunks while B/C misses churn the cache — where demand eviction pays a
//! synchronous dirty write-back inside the read path. With the daemon on
//! (plus the segmented clean-first cache) the flusher cleans chunks off
//! the foreground clock and p95 `lat.fuse.read` must improve >= 20%.
//!
//! Also swept: the Table VII random-write synthetic across dirty-ratio
//! knobs x cache segmentation, and read-dominated guardrails (STREAM B&C,
//! hybrid qsort) that the daemon must not regress.
//!
//! Run with `-- --smoke` for the CI-sized variant (scripts/ledger.sh diffs
//! its JSON against the committed ledger, daemon counters included).

use bench::{arg_value, header, JsonReport, Table, SCALE};
use chunkstore::StoreConfig;
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use obs::validate_chrome_trace;
use simcore::VTime;
use workloads::qsort::{run_sort_hybrid, SortConfig};
use workloads::randwrite::{run_randwrite, RandWriteConfig};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

/// 16 MiB (64 chunks): small enough that the dirty STREAM working set
/// (3 arrays) and the randwrite region overflow it.
const CACHE: u64 = 16 * 1024 * 1024;

/// `daemon = Some((background, hard))` enables the write-back daemon;
/// `seg` enables the segmented scan-resistant cache. `None/false` is
/// today's demand-eviction default.
fn fuse_cfg(daemon: Option<(f64, f64)>, seg: bool) -> FuseConfig {
    let mut cfg = FuseConfig {
        cache_bytes: CACHE,
        ..FuseConfig::default()
    };
    if let Some((background, hard)) = daemon {
        cfg = cfg.with_writeback(background, hard);
    }
    if seg {
        cfg = cfg.with_seg_cache();
    }
    cfg
}

/// The daemon configuration under test everywhere below.
const DAEMON: (f64, f64) = (0.25, 0.75);

struct StreamRun {
    time: VTime,
    p95_read_ns: u64,
    bg_flushes: u64,
    clean_evictions: u64,
}

/// STREAM TRIAD with A, B and C all on the store: every iteration writes
/// all of A (dirtying its chunks) while B/C reads miss, so demand
/// eviction keeps paying synchronous write-backs inside reads. Runs
/// traced when `traced` so p95 `lat.fuse.read` lands in the obs footer.
fn dirty_stream(
    fuse: FuseConfig,
    elems: usize,
    iters: usize,
    traced: bool,
) -> (StreamRun, Cluster) {
    let jcfg = JobConfig::remote(1, 1, 4);
    let cluster = if traced {
        Cluster::with_obs_causal(
            ClusterSpec::hal().scaled(SCALE),
            &jcfg.benefactor_nodes(),
            fuse,
            StoreConfig::default(),
        )
    } else {
        Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &jcfg.benefactor_nodes(),
            fuse,
        )
    };
    let scfg = StreamConfig {
        iters,
        block_elems: 64 * 1024, // 512 KiB requests
        ..StreamConfig::new(elems)
    }
    .place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let rep = run_stream(
        &cluster,
        &jcfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    assert!(rep.verified, "dirty STREAM data corrupted");
    let (p95, bg, clean) = if traced {
        let footer = cluster.trace.footer(10);
        (
            footer.hist("lat.fuse.read").map(|h| h.p95_ns).unwrap_or(0),
            footer.counters.get("fuse.bg_flushes"),
            footer.counters.get("fuse.clean_evictions"),
        )
    } else {
        (
            0,
            cluster.stats.get("fuse.bg_flushes"),
            cluster.stats.get("fuse.clean_evictions"),
        )
    };
    (
        StreamRun {
            time: rep.time,
            p95_read_ns: p95,
            bg_flushes: bg,
            clean_evictions: clean,
        },
        cluster,
    )
}

/// Read-dominated STREAM (A in DRAM, B&C on the store) — the daemon has
/// almost nothing to flush here and must not slow the reads down.
fn read_stream_time(fuse: FuseConfig, elems: usize, iters: usize) -> f64 {
    let jcfg = JobConfig::remote(1, 1, 4);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &jcfg.benefactor_nodes(),
        fuse,
    );
    let scfg = StreamConfig {
        iters,
        block_elems: 64 * 1024,
        ..StreamConfig::new(elems)
    }
    .place(ArrayPlace::Dram, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let rep = run_stream(
        &cluster,
        &jcfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    assert!(rep.verified, "read STREAM data corrupted");
    rep.time.as_secs_f64()
}

fn sort_time(fuse: FuseConfig, total: usize) -> f64 {
    let jcfg = JobConfig::remote(2, 1, 4);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &jcfg.benefactor_nodes(),
        fuse,
    );
    let rep = run_sort_hybrid(
        &cluster,
        &jcfg,
        &SortConfig {
            dram_part: (1, 4),
            ..SortConfig::new(total)
        },
    );
    assert!(rep.verified, "sort output not a sorted permutation");
    rep.time.as_secs_f64()
}

/// One Table VII randwrite run under a given write-back configuration.
fn randwrite_run(
    daemon: Option<(f64, f64)>,
    seg: bool,
    rw: &RandWriteConfig,
) -> (f64, u64, u64, u64) {
    let jcfg = JobConfig::remote(1, 1, 4);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &jcfg.benefactor_nodes(),
        fuse_cfg(daemon, seg),
    );
    let rep = run_randwrite(&cluster, &jcfg, rw, true);
    assert!(rep.verified, "randwrite probes corrupted");
    (
        rep.time.as_secs_f64(),
        rep.data_to_ssd,
        cluster.stats.get("fuse.bg_flushes"),
        cluster.stats.get("fuse.throttled_writes"),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Write-back daemon: demand eviction vs background flushing",
        "DESIGN.md \u{a7}10 ablation (no paper counterpart)",
    );
    if smoke {
        println!("  [smoke] CI-sized problem; qsort guardrail skipped\n");
    }

    // 3 arrays x 8 MiB (full: x 16 MiB) overflow the 16 MiB cache.
    let stream_elems = if smoke { 1 << 20 } else { 2 << 20 };
    let stream_iters = if smoke { 2 } else { 3 };
    let rw = RandWriteConfig {
        region_bytes: if smoke { 64 << 20 } else { 128 << 20 },
        writes: if smoke { 16 * 1024 } else { 64 * 1024 },
        seed: 42,
    };
    let sort_total = 2 * (1 << 18);

    let mut report = JsonReport::new("writeback_daemon");
    report
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("cache_bytes", CACHE)
        .config("daemon_ratios", format!("{}/{}", DAEMON.0, DAEMON.1))
        .config("stream_elems", stream_elems)
        .config("stream_iters", stream_iters as u64)
        .config("rw_region_bytes", rw.region_bytes)
        .config("rw_writes", rw.writes as u64)
        .config("sort_total", if smoke { 0 } else { sort_total });
    // ----- centerpiece: full-cache dirty STREAM, demand vs daemon -------
    let (demand_raw, _) = dirty_stream(fuse_cfg(None, false), stream_elems, stream_iters, false);
    let (daemon_raw, _) = dirty_stream(
        fuse_cfg(Some(DAEMON), true),
        stream_elems,
        stream_iters,
        false,
    );
    let (demand, _) = dirty_stream(fuse_cfg(None, false), stream_elems, stream_iters, true);
    let (daemon, traced_cluster) = dirty_stream(
        fuse_cfg(Some(DAEMON), true),
        stream_elems,
        stream_iters,
        true,
    );

    let t = Table::new(&[
        ("Dirty STREAM", 16),
        ("Time (s)", 10),
        ("p95 read (ms)", 14),
        ("Bg flushes", 11),
        ("Clean evict", 12),
    ]);
    for (label, run) in [("demand", &demand), ("daemon+seg", &daemon)] {
        t.row(&[
            label.to_string(),
            format!("{:.3}", run.time.as_secs_f64()),
            format!("{:.3}", run.p95_read_ns as f64 / 1e6),
            run.bg_flushes.to_string(),
            run.clean_evictions.to_string(),
        ]);
    }
    println!();

    report.value("dirty_stream_demand_s", demand.time.as_secs_f64());
    report.value("dirty_stream_daemon_s", daemon.time.as_secs_f64());
    report.value("dirty_stream_demand_p95_read_ns", demand.p95_read_ns as f64);
    report.value("dirty_stream_daemon_p95_read_ns", daemon.p95_read_ns as f64);

    let p95_gain = 1.0 - daemon.p95_read_ns as f64 / demand.p95_read_ns as f64;
    report.value("dirty_stream_p95_read_gain", p95_gain);
    report.check(
        "daemon: p95 fuse.read improves >= 20% on the full-cache dirty workload",
        p95_gain >= 0.20,
    );
    report.check(
        "daemon: whole dirty workload completes faster than demand eviction",
        daemon.time < demand.time,
    );
    report.check(
        "traced and untraced runs are bit-identical (demand and daemon)",
        demand.time == demand_raw.time && daemon.time == daemon_raw.time,
    );
    report.check(
        "daemon: background flusher and clean-first eviction were exercised",
        daemon.bg_flushes > 0 && daemon.clean_evictions > 0 && demand.bg_flushes == 0,
    );

    // ----- Table VII randwrite: dirty ratios x cache segmentation -------
    type SweepRow = (&'static str, Option<(f64, f64)>, bool);
    let sweep: [SweepRow; 5] = [
        ("off", None, false),
        ("bg50", Some((0.5, 0.9)), false),
        ("bg25", Some(DAEMON), false),
        ("bg50+seg", Some((0.5, 0.9)), true),
        ("bg25+seg", Some(DAEMON), true),
    ];
    let t = Table::new(&[
        ("Randwrite cfg", 14),
        ("Time (s)", 10),
        ("To SSD (MiB)", 13),
        ("Bg flushes", 11),
        ("Throttled", 10),
    ]);
    let mut rw_times = Vec::new();
    for (label, daemon_cfg, seg) in sweep {
        let (time, to_ssd, bg, throttled) = randwrite_run(daemon_cfg, seg, &rw);
        t.row(&[
            label.to_string(),
            format!("{time:.3}"),
            format!("{:.1}", to_ssd as f64 / (1 << 20) as f64),
            bg.to_string(),
            throttled.to_string(),
        ]);
        report.value(&format!("randwrite_{label}_s"), time);
        report.value(&format!("randwrite_{label}_to_ssd"), to_ssd as f64);
        rw_times.push((label, time, bg));
    }
    println!();
    let off_time = rw_times[0].1;
    let best_daemon = rw_times[1..]
        .iter()
        .map(|&(_, t, _)| t)
        .fold(f64::INFINITY, f64::min);
    report.check(
        "randwrite: best daemon configuration does not regress (> -5%)",
        best_daemon <= off_time * 1.05,
    );
    report.check(
        "randwrite: every daemon configuration flushed in the background",
        rw_times[1..].iter().all(|&(_, _, bg)| bg > 0),
    );

    // ----- guardrails: read-dominated workloads must not regress --------
    let guard_serial = read_stream_time(fuse_cfg(None, false), stream_elems, stream_iters);
    let guard_daemon = read_stream_time(fuse_cfg(Some(DAEMON), true), stream_elems, stream_iters);
    report.value("read_stream_demand_s", guard_serial);
    report.value("read_stream_daemon_s", guard_daemon);
    report.check(
        "guardrail: read-dominated STREAM does not regress under the daemon",
        guard_daemon <= guard_serial * 1.02,
    );
    if !smoke {
        let q_serial = sort_time(fuse_cfg(None, false), sort_total);
        let q_daemon = sort_time(fuse_cfg(Some(DAEMON), true), sort_total);
        report.value("qsort_demand_s", q_serial);
        report.value("qsort_daemon_s", q_daemon);
        report.check(
            "guardrail: hybrid qsort does not regress under the daemon",
            q_daemon <= q_serial * 1.02,
        );
    }

    // ----- traced artifacts from the daemon run -------------------------
    let footer = traced_cluster.trace.footer(10);
    report.check(
        "traced: fuse.bg_flush spans recorded",
        footer.top_spans.iter().any(|s| s.name == "fuse.bg_flush")
            || traced_cluster
                .trace
                .spans()
                .iter()
                .any(|s| s.name == "fuse.bg_flush"),
    );
    let text = traced_cluster.trace.chrome_trace();
    let valid = validate_chrome_trace(&text);
    report.check(
        "traced: chrome trace export validates",
        match &valid {
            Ok(summary) => summary.spans > 0,
            Err(e) => {
                eprintln!("  [trace] invalid export: {e}");
                false
            }
        },
    );
    if let Some(path) = arg_value("--trace") {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, &text) {
            Ok(()) => println!("  [trace] wrote {path} (load in Perfetto / chrome://tracing)"),
            Err(e) => eprintln!("  [trace] cannot write {path}: {e}"),
        }
    }
    report.obs_from(&footer);

    report.emit();
}
