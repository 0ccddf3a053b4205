//! Table VII — the dirty-page write optimization under random byte writes.
//!
//! 128 K single-byte writes (scaled to keep 16 writes per chunk) at
//! random addresses in a 2 GB (scaled) NVM region. With the optimization
//! an evicted chunk ships only its dirty 4 KiB pages; without it the
//! whole 256 KiB chunk travels. Paper: 504 MB vs 19.3 GB to the SSD for
//! the same ~470 MB of page-granular traffic into FUSE.

use bench::{header, mib, scaled_fuse, JsonReport, Table, SCALE};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::randwrite::{run_randwrite, RandWriteConfig, RandWriteReport};

fn main() {
    header(
        "Table VII: random-write synthetic, write optimization",
        "Table VII",
    );
    let region = (2u64 << 30) / SCALE; // 2 GB scaled = 128 chunks
    let writes = (131_072 / SCALE as usize).max(1); // keep 16 writes/chunk
    println!(
        "region {} MiB, {} single-byte writes\n",
        region >> 20,
        writes
    );

    let cfg = JobConfig::local(1, 1, 1);
    let rw = RandWriteConfig {
        region_bytes: region,
        writes,
        seed: 11,
    };

    let run = |optimized: bool| -> (RandWriteReport, Cluster) {
        let cluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            FuseConfig {
                dirty_page_writeback: optimized,
                ..scaled_fuse(SCALE)
            },
        );
        let r = run_randwrite(&cluster, &cfg, &rw, optimized);
        bench::store_health(if optimized { "w/ opt" } else { "w/o opt" }, &cluster);
        (r, cluster)
    };

    let (opt, opt_cluster) = run(true);
    let (unopt, unopt_cluster) = run(false);

    let t = Table::new(&[
        ("NVMalloc write opt.", 20),
        ("To FUSE (MiB)", 14),
        ("To SSD (MiB)", 13),
        ("Time (s)", 9),
        ("verified", 9),
    ]);
    for r in [&opt, &unopt] {
        t.row(&[
            if r.optimized {
                "w/ Optimization"
            } else {
                "w/o Optimization"
            }
            .to_string(),
            mib(r.data_to_fuse),
            mib(r.data_to_ssd),
            format!("{:.3}", r.time.as_secs_f64()),
            r.verified.to_string(),
        ]);
    }
    println!();
    let reduction = unopt.data_to_ssd as f64 / opt.data_to_ssd as f64;
    println!("SSD-volume reduction: {reduction:.1}x (paper: 19.3 GB / 504 MB = 38x)");
    let mut report = JsonReport::new("table7_write_opt");
    report
        .config("scale", SCALE)
        .config("region_bytes", region)
        .config("writes", writes);
    report
        .counter("opt_data_to_fuse", opt.data_to_fuse)
        .counter("opt_data_to_ssd", opt.data_to_ssd)
        .counter("unopt_data_to_ssd", unopt.data_to_ssd)
        .value("opt_time_s", opt.time)
        .value("unopt_time_s", unopt.time)
        .value("ssd_volume_reduction", reduction);
    report.check(
        "to-FUSE volume identical in both modes (paper: 467 vs 471 MB)",
        opt.data_to_fuse == unopt.data_to_fuse,
    );
    report.check(
        "optimization cuts SSD volume by an order of magnitude (paper: 38x)",
        reduction > 10.0,
    );
    report.check("optimization also cuts runtime", opt.time < unopt.time);
    report.check("both runs verified", opt.verified && unopt.verified);
    report
        .ran(&opt_cluster)
        .ran(&unopt_cluster)
        .counters_from(&unopt_cluster)
        .health_from(&unopt_cluster)
        .emit();
}
