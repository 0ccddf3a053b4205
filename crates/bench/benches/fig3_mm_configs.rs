//! Fig. 3 — matrix-multiply runtime breakdown, 2 GB/matrix (scaled),
//! row-major access, shared mmap file for B, across the paper's
//! DRAM/L-SSD/R-SSD `(x:y:z)` configurations.

use bench::{hal_cluster, header, secs, JsonReport, Table, SCALE};
use cluster::JobConfig;
use workloads::matmul::{run_mm, BPlacement, MmConfig, MmReport};

pub const N: usize = 2048;

fn configs() -> Vec<(JobConfig, BPlacement)> {
    vec![
        (JobConfig::dram_only(2, 16), BPlacement::Dram),
        (JobConfig::local(2, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 4), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 2), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 1), BPlacement::NvmShared),
    ]
}

fn run_one(cfg: &JobConfig, place: BPlacement) -> (MmReport, cluster::Cluster) {
    let cluster = hal_cluster(cfg);
    let mm = MmConfig {
        b_place: place,
        ..MmConfig::paper_2gb(N)
    };
    let r = run_mm(&cluster, cfg, &mm).expect("feasible configuration");
    bench::store_health(&r.label, &cluster);
    (r, cluster)
}

fn main() {
    header(
        "Fig. 3: MM runtime (row-major, 2 GB/matrix, shared mmap file for B)",
        "Fig. 3",
    );
    let t = Table::new(&[
        ("Config", 15),
        ("Input&Split-A", 14),
        ("Input-B", 9),
        ("Broadcast-B", 12),
        ("Computing", 10),
        ("Collect&Out-C", 14),
        ("Total", 9),
    ]);
    let mut report = JsonReport::new("fig3_mm_configs");
    report.config("scale", SCALE).config("n", N);
    let mut reports = Vec::new();
    let mut last_cluster = None;
    for (cfg, place) in configs() {
        let (r, cluster) = run_one(&cfg, place);
        report
            .value(&format!("total_s_{}", r.label), r.stages.total())
            .host_events(r.handoffs);
        last_cluster = Some(cluster);
        t.row(&[
            r.label.clone(),
            secs(r.stages.input_split_a),
            secs(r.stages.input_b),
            secs(r.stages.broadcast_b),
            secs(r.stages.computing),
            secs(r.stages.collect_output_c),
            secs(r.stages.total()),
        ]);
        reports.push(r);
    }
    println!();

    let total = |i: usize| reports[i].stages.total().as_secs_f64();
    let dram = total(0);
    println!(
        "L-SSD(2:16:16) vs DRAM(2:16:0): {:+.2}% (paper: -2.19%)",
        (1.0 - total(1) / dram) * 100.0
    );
    println!(
        "L-SSD(8:16:16) vs DRAM(2:16:0): {:+.2}% (paper: +53.75%)",
        (1.0 - total(2) / dram) * 100.0
    );
    println!(
        "R-SSD(8:8:8)  vs L-SSD(8:8:8):  {:+.2}% (paper: -1.42%)",
        (1.0 - total(4) / total(3)) * 100.0
    );
    println!(
        "R-SSD(8:8:8)  vs DRAM(2:16:0):  {:+.2}% (paper: +34.73%)",
        (1.0 - total(4) / dram) * 100.0
    );
    println!(
        "R-SSD(8:8:1)  vs DRAM(2:16:0):  {:+.2}% (paper: +32.47%)",
        (1.0 - total(7) / dram) * 100.0
    );
    println!();

    report.check(
        "L-SSD(2:16:16) within a few % of DRAM-only (paper: 2.19% worse)",
        (total(1) / dram - 1.0).abs() < 0.10,
    );
    report.check(
        "L-SSD(8:16:16) a large improvement over DRAM(2:16:0) (paper: 53.75%)",
        1.0 - total(2) / dram > 0.35,
    );
    report.check(
        "remote SSDs add little overhead vs local (paper: 1.42%)",
        (total(4) / total(3) - 1.0).abs() < 0.05,
    );
    report.check(
        "fewer benefactors grow mainly the broadcast stage",
        reports[7].stages.broadcast_b > reports[4].stages.broadcast_b
            && (reports[7].stages.computing.as_secs_f64()
                / reports[4].stages.computing.as_secs_f64()
                - 1.0)
                .abs()
                < 0.25,
    );
    report.check(
        "R-SSD(8:8:1): one $589 SSD per 8 nodes still beats DRAM-only on half the nodes",
        total(7) < dram,
    );
    let cluster = last_cluster.expect("configs ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
