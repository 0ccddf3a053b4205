//! Fig. 6 — matrix multiply with 8 GB matrices: a problem larger than any
//! node's physical memory (3 × 8 GB working set vs 8 GB/node).
//!
//! Everything here runs at capacity scale 1/256 so both the 2 GB
//! reference problem and the 8 GB problem fit the host: node DRAM scales
//! to 32 MiB and the matrices to 8 MiB (2 GB) and 32 MiB (8 GB). The
//! DRAM-only placement is *infeasible* for the 8 GB problem — the very
//! point of the figure — while every NVMalloc configuration completes.
//!
//! Paper: the computation should grow 8–16× from 2 GB to 8 GB and grows
//! ~9× in their measurement; NVMalloc "scales well for larger sizes".

use bench::{header, secs, JsonReport, Table};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::matmul::{run_mm, BPlacement, MmConfig};

const SCALE: u64 = 256;
const N_2GB: usize = 1024;
const N_8GB: usize = 2048;

fn cluster_for(cfg: &JobConfig) -> Cluster {
    Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: (64 * 1024 * 1024 / SCALE).max(512 * 1024),
            ..FuseConfig::default()
        },
    )
}

fn main() {
    header("Fig. 6: MM with 8 GB matrices (scale 1/256)", "Fig. 6");

    // The 8 GB problem cannot run DRAM-only at all.
    let dram_cfg = JobConfig::dram_only(1, 16);
    let infeasible = run_mm(
        &cluster_for(&dram_cfg),
        &dram_cfg,
        &MmConfig {
            b_place: BPlacement::Dram,
            verify: false,
            ..MmConfig::paper_8gb(N_8GB)
        },
    );
    match &infeasible {
        Err(e) => println!("DRAM-only 8 GB: INFEASIBLE ({e})\n"),
        Ok(_) => println!("DRAM-only 8 GB: unexpectedly feasible!\n"),
    }

    // 2 GB reference at the same configuration, for the growth factor.
    let ref_cfg = JobConfig::local(8, 16, 16);
    let r2 = run_mm(
        &cluster_for(&ref_cfg),
        &ref_cfg,
        &MmConfig::paper_2gb(N_2GB),
    )
    .unwrap();
    println!(
        "2 GB reference {}: computing {}\n",
        r2.label,
        secs(r2.stages.computing)
    );

    let t = Table::new(&[
        ("Config (8 GB)", 15),
        ("Input&Split-A", 14),
        ("Input-B", 9),
        ("Broadcast-B", 12),
        ("Computing", 10),
        ("Collect&Out-C", 14),
        ("Total", 9),
    ]);
    let mut report = JsonReport::new("fig6_mm_8gb");
    report
        .config("scale", SCALE)
        .config("n_2gb", N_2GB)
        .config("n_8gb", N_8GB)
        .value("ref_2gb_computing_s", r2.stages.computing)
        .host_events(r2.handoffs);
    let mut computing = Vec::new();
    let mut last_cluster = None;
    for cfg in [
        JobConfig::local(8, 16, 16),
        JobConfig::local(8, 8, 8),
        JobConfig::remote(8, 8, 8),
        JobConfig::remote(8, 8, 4),
    ] {
        let cluster = cluster_for(&cfg);
        let r = run_mm(&cluster, &cfg, &MmConfig::paper_8gb(N_8GB)).unwrap();
        bench::store_health(&r.label, &cluster);
        t.row(&[
            r.label.clone(),
            secs(r.stages.input_split_a),
            secs(r.stages.input_b),
            secs(r.stages.broadcast_b),
            secs(r.stages.computing),
            secs(r.stages.collect_output_c),
            secs(r.stages.total()),
        ]);
        computing.push(r.stages.computing.as_secs_f64());
        report
            .value(&format!("computing_s_{}", r.label), r.stages.computing)
            .host_events(r.handoffs);
        last_cluster = Some(cluster);
    }
    println!();
    let factor = computing[0] / r2.stages.computing.as_secs_f64();
    println!(
        "computing growth 2 GB → 8 GB at L-SSD(8:16:16): {factor:.1}x (paper: ~9x, naive 16x)"
    );
    report.value("growth_factor", factor);
    report.check(
        "DRAM-only placement is infeasible for the 8 GB problem",
        infeasible.is_err(),
    );
    report.check(
        "computing grows by 8-16x (paper measured ~9x)",
        factor > 6.0 && factor < 18.0,
    );
    report.check(
        "all NVMalloc configurations complete a problem larger than physical memory",
        computing.iter().all(|c| *c > 0.0),
    );
    let cluster = last_cluster.expect("configs ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
