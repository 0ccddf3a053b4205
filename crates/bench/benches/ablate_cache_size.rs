//! Ablation — FUSE chunk-cache size.
//!
//! The paper fixes the client cache at 64 MiB ("needs to be sufficient
//! enough to aid with bridging the granularity gap, while also not
//! consuming too much DRAM", §III-D). This sweep shows the trade-off on
//! the matrix-multiply computing stage.

use bench::{header, JsonReport, Table, SCALE};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::matmul::{run_mm, AccessOrder, MmConfig};

fn main() {
    header(
        "Ablation: FUSE cache size vs MM computing time",
        "§III-D design choice",
    );
    // Column-major access on the adapted 8-rank configuration (Table V's
    // setup): the pattern whose chunk re-fetches the cache exists to
    // absorb. Row-major streams are nearly cache-size-insensitive because
    // the node's processes share one sequential sweep.
    let cfg = JobConfig::local(8, 1, 1);
    let t = Table::new(&[("Cache", 8), ("Computing s", 12), ("SSD GiB", 9)]);
    let mut report = JsonReport::new("ablate_cache_size");
    report.config("scale", SCALE).config("config", cfg.label());
    let mut times = Vec::new();
    let mut last_cluster = None;
    for cache_kib in [512u64, 1024, 2048, 4096, 8192, 16384] {
        let cluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            FuseConfig {
                cache_bytes: cache_kib * 1024,
                ..FuseConfig::default()
            },
        );
        let mm = MmConfig {
            order: AccessOrder::ColMajor,
            tile: 32,
            ..MmConfig::paper_2gb(1024)
        };
        let r = run_mm(&cluster, &cfg, &mm).unwrap();
        t.row(&[
            format!("{}K", cache_kib),
            format!("{:.3}", r.stages.computing.as_secs_f64()),
            format!(
                "{:.2}",
                r.traffic.ssd_req_bytes as f64 / (1u64 << 30) as f64
            ),
        ]);
        times.push(r.stages.computing.as_secs_f64());
        report.value(
            &format!("computing_s_cache_{cache_kib}k"),
            r.stages.computing,
        );
        bench::store_health(&format!("cache {}K", cache_kib), &cluster);
        report.ran(&cluster);
        last_cluster = Some(cluster);
    }
    println!();
    report.check(
        "larger caches never hurt the computing stage",
        times.windows(2).all(|w| w[1] <= w[0] * 1.05),
    );
    report.check(
        "diminishing returns: the last doubling changes less than the first",
        (times[0] - times[1]) >= (times[4] - times[5]),
    );
    let cluster = last_cluster.expect("sweep ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
