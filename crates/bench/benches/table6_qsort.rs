//! Table VI — parallel sorting of a 200 GB list (scaled 1/1024).
//!
//! * DRAM(8:16:0): the whole machine's DRAM cannot hold the list, so the
//!   program is rewritten into two passes with the interim sorted halves
//!   staged on the PFS.
//! * L-SSD(8:16:16): 100 GB in DRAM + 100 GB on 16 local SSDs, one pass.
//! * R-SSD(8:8:8): 50 GB in DRAM + 150 GB on 8 remote SSDs, one pass
//!   (half the nodes, double the per-node work).
//!
//! Paper: L-SSD is ~10× faster than the two-pass DRAM baseline; R-SSD is
//! slower than L-SSD but still sorts in one pass.

use bench::{hal_cluster_scaled, header, JsonReport, Table, SORT_SCALE};
use cluster::JobConfig;
use workloads::qsort::{run_sort_dram_two_pass, run_sort_hybrid, SortConfig};

fn main() {
    header(
        "Table VI: 200 GB parallel quicksort (scale 1/1024)",
        "Table VI",
    );
    // 200 GB of u64 → scaled to 128 ranks × 196,608 elements.
    let total = 128 * 196_608;

    let t = Table::new(&[
        ("Config", 15),
        ("Time (s)", 9),
        ("Pass (#)", 9),
        ("verified", 9),
    ]);

    let dram_cfg = JobConfig::dram_only(8, 16);
    let dram_cluster = hal_cluster_scaled(&dram_cfg, SORT_SCALE);
    let dram = run_sort_dram_two_pass(&dram_cluster, &dram_cfg, &SortConfig::new(total));
    t.row(&[
        dram.label.clone(),
        format!("{:.3}", dram.time.as_secs_f64()),
        dram.passes.to_string(),
        dram.verified.to_string(),
    ]);

    let l_cfg = JobConfig::local(8, 16, 16);
    let l_cluster = hal_cluster_scaled(&l_cfg, SORT_SCALE);
    let l = run_sort_hybrid(
        &l_cluster,
        &l_cfg,
        &SortConfig {
            dram_part: (1, 2),
            ..SortConfig::new(total)
        },
    );
    t.row(&[
        l.label.clone(),
        format!("{:.3}", l.time.as_secs_f64()),
        l.passes.to_string(),
        l.verified.to_string(),
    ]);

    let r_cfg = JobConfig::remote(8, 8, 8);
    let r_cluster = hal_cluster_scaled(&r_cfg, SORT_SCALE);
    let r = run_sort_hybrid(
        &r_cluster,
        &r_cfg,
        &SortConfig {
            dram_part: (1, 4),
            ..SortConfig::new(total)
        },
    );
    t.row(&[
        r.label.clone(),
        format!("{:.3}", r.time.as_secs_f64()),
        r.passes.to_string(),
        r.verified.to_string(),
    ]);
    bench::store_health(&l.label, &l_cluster);
    bench::store_health(&r.label, &r_cluster);

    println!();
    let speedup = dram.time.as_secs_f64() / l.time.as_secs_f64();
    println!("L-SSD(8:16:16) speedup over two-pass DRAM: {speedup:.1}x (paper: ~10x)");
    let mut report = JsonReport::new("table6_qsort");
    report
        .config("sort_scale", SORT_SCALE)
        .config("total_elems", total as u64);
    report
        .value("dram_two_pass_s", dram.time)
        .value("l_ssd_s", l.time)
        .value("r_ssd_s", r.time)
        .value("speedup_l_vs_dram", speedup);
    report.check(
        "every configuration produces a verified sorted permutation",
        dram.verified && l.verified && r.verified,
    );
    report.check(
        "hybrid sorts in one pass, DRAM-only needs two",
        l.passes == 1 && dram.passes == 2,
    );
    report.check(
        "L-SSD hybrid is several times faster than two-pass DRAM (paper: 10x)",
        speedup > 3.0,
    );
    report.check(
        "R-SSD (half the nodes, more NVM) is slower than L-SSD but beats two-pass",
        r.time > l.time && r.time < dram.time,
    );
    report
        .ran(&dram_cluster)
        .ran(&l_cluster)
        .ran(&r_cluster)
        .counters_from(&r_cluster)
        .health_from(&r_cluster)
        .emit();
}
