//! Fig. 5 — computing time, row-major vs column-major access to B.
//!
//! Column-major traversal of the row-major B defeats both the chunk
//! cache and DRAM caching; the paper shows it far slower everywhere,
//! degrading further as SSD resources shrink (L→R, fewer benefactors),
//! while row-major stays stable.

use bench::{header, secs, JsonReport, Table, SCALE};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::matmul::{run_mm, AccessOrder, BPlacement, MmConfig};

const N: usize = 2048;

fn main() {
    header(
        "Fig. 5: MM computing time, row- vs column-major access to B",
        "Fig. 5",
    );
    let t = Table::new(&[
        ("Config", 15),
        ("Row-major", 10),
        ("Col-major", 10),
        ("Col/Row", 8),
    ]);
    let configs: Vec<(JobConfig, BPlacement)> = vec![
        (JobConfig::dram_only(2, 16), BPlacement::Dram),
        (JobConfig::local(2, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 4), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 2), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 1), BPlacement::NvmShared),
    ];
    let mut report = JsonReport::new("fig5_mm_access_pattern");
    report.config("scale", SCALE).config("n", N);
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut last_cluster = None;
    for (cfg, place) in configs {
        let mut comp = [0.0f64; 2];
        for (slot, order) in [AccessOrder::RowMajor, AccessOrder::ColMajor]
            .into_iter()
            .enumerate()
        {
            let cluster = Cluster::with_fuse(
                ClusterSpec::hal().scaled(SCALE),
                &cfg.benefactor_nodes(),
                FuseConfig {
                    cache_bytes: 4 * 1024 * 1024,
                    ..FuseConfig::default()
                },
            );
            let r = run_mm(
                &cluster,
                &cfg,
                &MmConfig {
                    order,
                    b_place: place,
                    ..MmConfig::paper_2gb(N)
                },
            )
            .unwrap();
            comp[slot] = r.stages.computing.as_secs_f64();
            bench::store_health(&format!("{} {order:?}", cfg.label()), &cluster);
            report
                .value(
                    &format!("computing_s_{}_{order:?}", cfg.label()),
                    comp[slot],
                )
                .host_events(r.handoffs);
            last_cluster = Some(cluster);
        }
        t.row(&[
            cfg.label(),
            format!("{:.3}", comp[0]),
            format!("{:.3}", comp[1]),
            format!("{:.2}x", comp[1] / comp[0]),
        ]);
        ratios.push(comp[1] / comp[0]);
        rows.push(comp[0]);
        cols.push(comp[1]);
    }
    println!();
    let _ = secs; // table uses explicit formatting
    report.check(
        "column-major is slower everywhere",
        ratios.iter().all(|r| *r > 1.0),
    );
    report.check(
        "the row/col gap is larger on NVM than on DRAM (paper: 'much more pronounced')",
        ratios[2..].iter().all(|r| *r > ratios[0]),
    );
    report.check(
        "column-major degrades as benefactors shrink (8→1), row-major stays stable",
        cols[7] > cols[4] * 1.02 && (rows[7] / rows[4] - 1.0).abs() < 0.10,
    );
    let cluster = last_cluster.expect("configs ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
