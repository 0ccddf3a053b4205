//! Fig. 4 — shared vs. individual mmap files for matrix B.
//!
//! `-SSD-S` maps one per-node shared file; `-SSD-I` gives every process
//! its own copy of B on the store. The paper reports the individual mode
//! up to ~18 % slower (broadcast + computation overhead), worst with all
//! 8 cores in use, yet still far better than the DRAM-only baseline.
//!
//! Scaled to n=1024 so the individual mode's 128 B-copies fit host RAM.
//! The FUSE cache uses the per-stream floor (2 chunks per process, 4 MiB
//! per node): naive capacity scaling would leave the 8 per-process
//! streams of the individual mode less than one chunk each, a thrashing
//! regime the paper's unscaled 64 MiB cache (256 chunks) never enters.

use bench::{header, secs, JsonReport, Table, SCALE};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::matmul::{run_mm, BPlacement, MmConfig};

const N: usize = 2048;

fn cluster_for(cfg: &JobConfig) -> Cluster {
    Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: 8 * 1024 * 1024,
            ..FuseConfig::default()
        },
    )
}

fn main() {
    header(
        "Fig. 4: MM, shared vs individual mmap files for B",
        "Fig. 4",
    );
    let t = Table::new(&[
        ("Config", 17),
        ("Broadcast-B", 12),
        ("Computing", 10),
        ("Total", 9),
    ]);

    let dram_cfg = JobConfig::dram_only(2, 16);
    let dram = run_mm(
        &cluster_for(&dram_cfg),
        &dram_cfg,
        &MmConfig {
            b_place: BPlacement::Dram,
            ..MmConfig::paper_2gb(N)
        },
    )
    .unwrap();
    t.row(&[
        dram.label.clone(),
        secs(dram.stages.broadcast_b),
        secs(dram.stages.computing),
        secs(dram.stages.total()),
    ]);

    let mut report = JsonReport::new("fig4_mm_shared_vs_individual");
    report
        .config("scale", SCALE)
        .config("n", N)
        .value("dram_total_s", dram.stages.total())
        .host_events(dram.handoffs);
    let mut pairs: Vec<(f64, f64)> = Vec::new(); // (shared total, individual total)
    let mut worst_penalty: f64 = 0.0;
    let mut last_cluster = None;
    for cfg in [
        JobConfig::local(2, 16, 16),
        JobConfig::local(8, 16, 16),
        JobConfig::local(8, 8, 8),
        JobConfig::remote(8, 8, 8),
    ] {
        let mut totals = [0.0f64; 2];
        for (slot, (place, tag)) in [
            (BPlacement::NvmIndividual, "I"),
            (BPlacement::NvmShared, "S"),
        ]
        .into_iter()
        .enumerate()
        {
            let cluster = cluster_for(&cfg);
            let r = run_mm(
                &cluster,
                &cfg,
                &MmConfig {
                    b_place: place,
                    ..MmConfig::paper_2gb(N)
                },
            )
            .unwrap();
            totals[slot] = r.stages.total().as_secs_f64();
            t.row(&[
                format!("{}-{tag}", r.label),
                secs(r.stages.broadcast_b),
                secs(r.stages.computing),
                secs(r.stages.total()),
            ]);
            bench::store_health(&format!("{}-{tag}", r.label), &cluster);
            report
                .value(&format!("total_s_{}-{tag}", r.label), r.stages.total())
                .host_events(r.handoffs);
            last_cluster = Some(cluster);
        }
        let penalty = totals[0] / totals[1] - 1.0;
        worst_penalty = worst_penalty.max(penalty);
        println!("    -> individual is {:+.1}% vs shared", penalty * 100.0);
        pairs.push((totals[1], totals[0]));
    }

    println!();
    println!(
        "worst individual-vs-shared penalty: {:.1}% (paper: up to 18%)",
        worst_penalty * 100.0
    );
    report.value("worst_penalty_pct", worst_penalty * 100.0);
    report.check(
        "individual mode is never faster than shared",
        pairs.iter().all(|(s, i)| i >= s),
    );
    report.check(
        "penalty within 2x of the paper's 18% worst case",
        worst_penalty > 0.0 && worst_penalty < 0.36,
    );
    report.check(
        "individual mode still beats the DRAM-only baseline (8-core cases)",
        pairs[1].1 < dram.stages.total().as_secs_f64(),
    );
    let cluster = last_cluster.expect("configs ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
