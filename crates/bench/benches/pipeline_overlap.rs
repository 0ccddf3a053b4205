//! Pipelined data path ablation (DESIGN.md §8) — serial vs. overlapped.
//!
//! Not a paper experiment: this measures what the PR 2 optimization buys.
//! Each workload runs twice per benefactor count — once with the default
//! serial §III-D data path, once with `pipelined_io` (batched multi-
//! benefactor fetches through the chunk-location cache, asynchronous
//! dirty write-back, adaptive read-ahead) — at 1, 2, 4 and 8 remote
//! benefactors.
//!
//! Expected shape: the gain comes from overlapping per-benefactor chunk
//! chains, so it GROWS with stripe width and VANISHES at width 1, where
//! one benefactor's chain is serial either way and only the elided
//! per-chunk manager RPCs remain (a few percent).
//!
//! Run with `-- --smoke` for the CI-sized variant (scripts/ledger.sh diffs
//! its serial-path JSON against a committed expectation).

use bench::{arg_value, header, JsonReport, Table, SCALE};
use chunkstore::StoreConfig;
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use obs::{critical_path, validate_chrome_trace, Layer};
use std::collections::{BTreeSet, HashMap};
use workloads::matmul::{run_mm, AccessOrder, MmConfig};
use workloads::qsort::{run_sort_hybrid, SortConfig};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A fixed 16 MiB cache (64 chunks): big enough to hold the 8-chunk
/// request spans that expose overlap, small enough that the streamed
/// arrays still miss.
fn fuse(pipelined: bool) -> FuseConfig {
    FuseConfig {
        cache_bytes: 16 * 1024 * 1024,
        pipelined_io: pipelined,
        ..FuseConfig::default()
    }
}

fn cluster_for(cfg: &JobConfig, pipelined: bool) -> Cluster {
    Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        fuse(pipelined),
    )
}

/// One rank streaming TRIAD with B and C on the store, 2 MiB (8-chunk)
/// requests — the sequential multi-chunk span shape.
fn stream_time(z: usize, pipelined: bool, elems: usize, iters: usize) -> f64 {
    let jcfg = JobConfig::remote(1, 1, z);
    let cluster = cluster_for(&jcfg, pipelined);
    let scfg = StreamConfig {
        iters,
        block_elems: 256 * 1024, // 2 MiB requests = 8 chunks
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
    assert!(rep.verified, "STREAM data corrupted");
    rep.time.as_secs_f64()
}

/// One rank multiplying with B on the store, row- or column-major.
fn mm_time(z: usize, pipelined: bool, n: usize, order: AccessOrder) -> f64 {
    let jcfg = JobConfig::remote(1, 1, z);
    let cluster = cluster_for(&jcfg, pipelined);
    let mm = MmConfig {
        order,
        ..MmConfig::paper_2gb(n)
    };
    let rep = run_mm(&cluster, &jcfg, &mm).expect("MM configuration must fit in DRAM");
    rep.stages.total().as_secs_f64()
}

/// Hybrid sort with 3/4 of the list on the store.
fn sort_time(z: usize, pipelined: bool, total: usize) -> f64 {
    let jcfg = JobConfig::remote(2, 1, z);
    let cluster = cluster_for(&jcfg, pipelined);
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

struct Row {
    workload: &'static str,
    width: usize,
    serial: f64,
    pipelined: f64,
}

impl Row {
    fn gain(&self) -> f64 {
        (self.serial - self.pipelined) / self.serial
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Pipelined data path: serial vs overlapped multi-benefactor fetch",
        "PR 2 ablation (no paper counterpart)",
    );
    if smoke {
        println!("  [smoke] CI-sized problem; STREAM widths only\n");
    }

    // Smoke halves the problem and skips MM/sort (the STREAM sweep alone
    // pins the serial cost model for the CI diff).
    // B + C must overflow the 16 MiB cache or the stream never misses.
    let stream_elems = if smoke { 2 << 20 } else { 4 << 20 };
    let stream_iters = if smoke { 2 } else { 3 };
    let mm_n = 2048;
    let sort_total = 2 * (1 << 18);

    let mut rows: Vec<Row> = Vec::new();
    for &z in &WIDTHS {
        rows.push(Row {
            workload: "stream_triad",
            width: z,
            serial: stream_time(z, false, stream_elems, stream_iters),
            pipelined: stream_time(z, true, stream_elems, stream_iters),
        });
    }
    if !smoke {
        for &z in &WIDTHS {
            rows.push(Row {
                workload: "mm_row_major",
                width: z,
                serial: mm_time(z, false, mm_n, AccessOrder::RowMajor),
                pipelined: mm_time(z, true, mm_n, AccessOrder::RowMajor),
            });
        }
        for &z in &WIDTHS {
            rows.push(Row {
                workload: "mm_col_major",
                width: z,
                serial: mm_time(z, false, mm_n, AccessOrder::ColMajor),
                pipelined: mm_time(z, true, mm_n, AccessOrder::ColMajor),
            });
        }
        for &z in &WIDTHS {
            rows.push(Row {
                workload: "qsort_hybrid",
                width: z,
                serial: sort_time(z, false, sort_total),
                pipelined: sort_time(z, true, sort_total),
            });
        }
    }

    let t = Table::new(&[
        ("Workload", 14),
        ("Benefactors", 12),
        ("Serial (s)", 11),
        ("Pipelined (s)", 14),
        ("Gain", 7),
    ]);
    for r in &rows {
        t.row(&[
            r.workload.to_string(),
            r.width.to_string(),
            format!("{:.3}", r.serial),
            format!("{:.3}", r.pipelined),
            format!("{:+.1}%", 100.0 * r.gain()),
        ]);
    }
    println!();

    let mut report = JsonReport::new("pipeline_overlap");
    report
        .config("smoke", smoke)
        .config("scale", SCALE)
        .config("widths", "1,2,4,8")
        .config("stream_elems", stream_elems)
        .config("stream_iters", stream_iters as u64)
        .config("mm_n", if smoke { 0 } else { mm_n })
        .config("sort_total", if smoke { 0 } else { sort_total })
        .config("cache_bytes", 16u64 * 1024 * 1024);
    // The serial-only sub-report: scripts/ledger.sh diffs this against a
    // committed expectation, pinning the default-path cost model.
    let mut serial = JsonReport::new("pipeline_overlap_serial");
    serial.config("smoke", smoke).config("scale", SCALE);
    for r in &rows {
        let key = format!("{}_z{}", r.workload, r.width);
        report.value(&format!("{key}_serial_s"), r.serial);
        report.value(&format!("{key}_pipelined_s"), r.pipelined);
        report.value(&format!("{key}_gain"), r.gain());
        serial.value(&format!("{key}_serial_s"), r.serial);
    }

    let find = |workload: &str, width: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.width == width)
    };
    if let Some(r) = find("stream_triad", 8) {
        report.check(
            "8-benefactor sequential STREAM gains >= 25% from pipelining",
            r.gain() >= 0.25,
        );
    }
    if let Some(r) = find("stream_triad", 1) {
        report.check(
            "width-1 STREAM unchanged by pipelining (RPC elision only, |delta| < 8%)",
            r.gain().abs() < 0.08,
        );
    }
    for w in ["stream_triad", "mm_col_major"] {
        if let (Some(r1), Some(r8)) = (find(w, 1), find(w, 8)) {
            report.check(
                &format!("{w}: gain grows with stripe width (z=8 > z=1)"),
                r8.gain() > r1.gain(),
            );
        }
    }
    if let Some(r) = find("mm_col_major", 8) {
        report.check(
            "8-benefactor col-major MM gains >= 25% from pipelining",
            r.gain() >= 0.25,
        );
    }
    if let Some(r) = find("mm_col_major", 1) {
        report.check(
            "width-1 col-major MM unchanged by pipelining (|delta| < 8%)",
            r.gain().abs() < 0.08,
        );
    }
    if let Some(r) = find("qsort_hybrid", 8) {
        report.check(
            "8-benefactor hybrid sort does not regress under pipelining",
            r.gain() > -0.02,
        );
    }

    // ----- traced demo run (separate cluster; the sweep above stays
    // untraced so the serial JSON diff pins tracing-off timing) ----------
    traced_demo(&mut report);

    report.emit();
    serial.emit();
}

/// Re-run the 4-benefactor pipelined STREAM with causal tracing enabled,
/// export the Chrome trace with flow arrows and gauge counter tracks (to
/// `--trace <path>` when given), append the obs footer + trace shape
/// checks to the report, and emit the standalone critical-path report
/// (`BENCH_pipeline_overlap_critpath.json`) that scripts/ledger.sh diffs
/// against a committed expectation — the causal attribution itself is
/// part of the pinned cost model.
fn traced_demo(report: &mut JsonReport) {
    let z = 4;
    let jcfg = JobConfig::remote(1, 1, z);
    let cluster = Cluster::with_obs_causal(
        ClusterSpec::hal().scaled(SCALE),
        &jcfg.benefactor_nodes(),
        fuse(true),
        StoreConfig::default(),
    );
    // B + C = 2x the 16 MiB cache, so the triad reads actually miss and
    // the trace shows the batched multi-benefactor fetch under each read.
    let scfg = StreamConfig {
        iters: 1,
        block_elems: 256 * 1024,
        ..StreamConfig::new(2 << 20)
    }
    .place(ArrayPlace::Dram, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let rep = run_stream(
        &cluster,
        &jcfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    assert!(rep.verified, "traced STREAM data corrupted");
    report.config("traced_demo", format!("pipelined stream_triad z={z}"));

    // Walk parent links: some single client read must decompose into
    // store fetches served by >= 2 distinct benefactors.
    let spans = cluster.trace.spans();
    let mut benefs_per_read: HashMap<u32, BTreeSet<u64>> = HashMap::new();
    for s in &spans {
        if s.name != "store.chunk_fetch" {
            continue;
        }
        let Some(&(_, b)) = s.args.iter().find(|(k, _)| *k == "benefactor") else {
            continue;
        };
        let mut cur = s.parent;
        while let Some(p) = cur {
            let ps = &spans[p as usize];
            if ps.name == "fuse.read" {
                benefs_per_read.entry(p).or_default().insert(b);
                break;
            }
            cur = ps.parent;
        }
    }
    report.check(
        "traced: one client read fans out to >= 2 benefactors",
        benefs_per_read.values().any(|b| b.len() >= 2),
    );

    let footer = cluster.trace.footer(10);
    let have = |l: Layer| footer.layers.iter().any(|b| b.layer == l);
    report.check(
        "traced: fuse, store, net and dev layers all recorded spans",
        have(Layer::Fuse) && have(Layer::Store) && have(Layer::Net) && have(Layer::Dev),
    );
    report.check(
        "traced: read latency percentiles recorded",
        footer.hist("lat.fuse.read").is_some() && footer.hist("lat.nvm.read").is_some(),
    );

    let series = cluster.sampler.series();
    let text = cluster.trace.chrome_trace_with_series(&series);
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
    // Causal mode must actually reach the export: paired flow events
    // (client span -> shard CPU / SSD service arrows in Perfetto) and the
    // sampler's counter tracks.
    report.check(
        "traced: export carries flow events and counter tracks",
        matches!(&valid, Ok(s) if s.flows > 0 && s.counter_samples > 0),
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

    // The standalone critical-path report. The traced demo's workload is
    // fixed (independent of --smoke), so this file is byte-stable across
    // runs and hosts — scripts/ledger.sh diffs it (host footer stripped) against
    // the committed BENCH_pipeline_overlap_critpath.json.
    let cp = critical_path(&cluster.trace, None).expect("causal cluster records spans");
    let mut cp_report = JsonReport::new("pipeline_overlap_critpath");
    cp_report
        .config("workload", format!("pipelined stream_triad z={z}"))
        .config("scale", SCALE);
    cp_report.critical_path_from(&cp);
    cp_report.series_from(&series);
    report.check(
        "traced: critical path attributes dev time on a striped stream",
        cp.category_ns("dev") > 0,
    );
    cp_report.emit();
}
