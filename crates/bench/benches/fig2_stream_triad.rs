//! Fig. 2 — STREAM TRIAD bandwidth vs. array placement.
//!
//! 3 × 2 GB arrays (scaled), 8 threads on one node, 10 iterations; the
//! six non-trivial placements of {A,B,C} on the NVM store, against local
//! and remote SSDs. Y-axis normalized to DRAM-only = 100, as in the
//! paper (which reports local ≈ 62× and remote ≈ 115× slower overall).

use bench::{hal_cluster, header, stream_fuse, JsonReport, Table, SCALE};
use cluster::{Calibration, JobConfig};
use cluster::{Cluster, ClusterSpec};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

const D: ArrayPlace = ArrayPlace::Dram;
const N: ArrayPlace = ArrayPlace::Nvm;

fn main() {
    header(
        "Fig. 2: STREAM TRIAD, A[i] = B[i] + 3*C[i]",
        "Fig. 2 (normalized bandwidth, log scale in the paper)",
    );
    let elems = (2u64 << 30) / SCALE / 8; // 2 GB per array, scaled, f64
    let base_cfg = StreamConfig::new(elems as usize);
    let calib = Calibration::default();

    // DRAM-only reference.
    let dram_cfg = JobConfig::dram_only(8, 1);
    let dram_cluster = hal_cluster(&dram_cfg);
    let dram = run_stream(
        &dram_cluster,
        &dram_cfg,
        calib,
        &base_cfg,
        StreamKernel::Triad,
    );
    println!(
        "DRAM-only reference: {:.1} MB/s (normalized 100)\n",
        dram.bandwidth_mb_s
    );

    let placements: [(ArrayPlace, ArrayPlace, ArrayPlace); 6] = [
        (N, D, D), // A
        (D, N, D), // B
        (D, D, N), // C
        (N, N, D), // A&B
        (D, N, N), // B&C
        (N, D, N), // A&C
    ];

    let t = Table::new(&[
        ("Arrays on SSD", 14),
        ("Local norm", 11),
        ("Remote norm", 12),
        ("L MB/s", 9),
        ("R MB/s", 9),
        ("verified", 9),
    ]);
    let mut report = JsonReport::new("fig2_stream_triad");
    report
        .config("scale", SCALE)
        .config("elems_per_array", elems)
        .value("dram_mb_s", dram.bandwidth_mb_s)
        .host_events(dram.handoffs)
        .ran(&dram_cluster);
    let mut worst_local = f64::MAX;
    let mut worst_remote = f64::MAX;
    let mut last_cluster = None;
    for (a, b, c) in placements {
        let scfg = base_cfg.place(a, b, c);

        let lcfg = JobConfig::local(8, 1, 1);
        let lcluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &lcfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
        );
        let local = run_stream(&lcluster, &lcfg, calib, &scfg, StreamKernel::Triad);

        let rcfg = JobConfig::remote(8, 1, 1);
        let rcluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &rcfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
        );
        let remote = run_stream(&rcluster, &rcfg, calib, &scfg, StreamKernel::Triad);

        let ln = 100.0 * local.bandwidth_mb_s / dram.bandwidth_mb_s;
        let rn = 100.0 * remote.bandwidth_mb_s / dram.bandwidth_mb_s;
        worst_local = worst_local.min(ln);
        worst_remote = worst_remote.min(rn);
        t.row(&[
            scfg.placement_label(),
            format!("{ln:.2}"),
            format!("{rn:.2}"),
            format!("{:.1}", local.bandwidth_mb_s),
            format!("{:.1}", remote.bandwidth_mb_s),
            format!("{}", local.verified && remote.verified),
        ]);
        let label = scfg.placement_label();
        report
            .value(&format!("local_mb_s_{label}"), local.bandwidth_mb_s)
            .value(&format!("remote_mb_s_{label}"), remote.bandwidth_mb_s)
            .host_events(local.handoffs + remote.handoffs)
            .ran(&lcluster)
            .ran(&rcluster);
        bench::store_health(&format!("L {label}"), &lcluster);
        bench::store_health(&format!("R {label}"), &rcluster);
        last_cluster = Some(rcluster);
    }

    println!();
    // Paper: local falls behind DRAM "by a factor of 62", remote "115".
    let lf = 100.0 / worst_local;
    let rf = 100.0 / worst_remote;
    println!("worst-case slowdown: local {lf:.0}x (paper 62x), remote {rf:.0}x (paper 115x)");
    report
        .value("worst_local_slowdown", lf)
        .value("worst_remote_slowdown", rf);
    report.check(
        "local SSD slowdown within 2x of the paper's 62x",
        lf > 31.0 && lf < 124.0,
    );
    report.check(
        "remote SSD slowdown within 2x of the paper's 115x",
        rf > 57.0 && rf < 230.0,
    );
    report.check(
        "remote always slower than local",
        worst_remote < worst_local + 1e-9,
    );
    let cluster = last_cluster.expect("placements ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
