//! Table V — MM computing time vs. loop-tile size, row- and column-major.
//!
//! Paper (L-SSD(8:16:16), 2 GB matrices, tiles 16..128): larger tiles cut
//! the column-major time roughly in half (2058s → 916s) while row-major
//! stays flat (~470 s).
//!
//! Adaptation: we run 8 ranks on one node so each rank owns 128 rows —
//! exactly the paper's per-process share — and sweep the paper's tile
//! values unscaled. (At 128 ranks the scaled-down per-rank share would be
//! smaller than the smallest tile.)

use bench::{hal_cluster, header, JsonReport, Table};
use cluster::JobConfig;
use workloads::matmul::{run_mm, AccessOrder, MmConfig};

const N: usize = 1024;

fn main() {
    header(
        "Table V: MM computing time vs tile size (adapted: 8 ranks, 128 rows each)",
        "Table V",
    );
    let t = Table::new(&[("Tile", 6), ("Row-major s", 12), ("Col-major s", 12)]);
    let cfg = JobConfig::local(8, 1, 1);
    let tiles = [16usize, 32, 64, 128];
    let mut report = JsonReport::new("table5_mm_tiles");
    report.config("n", N).config("config", cfg.label());
    let mut row_times = Vec::new();
    let mut col_times = Vec::new();
    let mut last_cluster = None;
    for tile in tiles {
        let mut comp = [0.0f64; 2];
        for (slot, order) in [AccessOrder::RowMajor, AccessOrder::ColMajor]
            .into_iter()
            .enumerate()
        {
            let cluster = hal_cluster(&cfg);
            let r = run_mm(
                &cluster,
                &cfg,
                &MmConfig {
                    tile,
                    order,
                    ..MmConfig::paper_2gb(N)
                },
            )
            .unwrap();
            comp[slot] = r.stages.computing.as_secs_f64();
            bench::store_health(&format!("tile {tile} {order:?}"), &cluster);
            report
                .value(&format!("computing_s_tile{tile}_{order:?}"), comp[slot])
                .ran(&cluster);
            last_cluster = Some(cluster);
        }
        t.row(&[
            tile.to_string(),
            format!("{:.3}", comp[0]),
            format!("{:.3}", comp[1]),
        ]);
        row_times.push(comp[0]);
        col_times.push(comp[1]);
    }
    println!();
    report.check(
        "column-major improves monotonically with larger tiles (paper: 2058s→916s)",
        col_times.windows(2).all(|w| w[1] < w[0]),
    );
    let row_spread = row_times.iter().cloned().fold(f64::MIN, f64::max)
        / row_times.iter().cloned().fold(f64::MAX, f64::min);
    report.check(
        "row-major is insensitive to tile size (paper: ~flat)",
        row_spread < 1.30,
    );
    report.check(
        "column-major stays slower than row-major at every tile",
        col_times.iter().zip(&row_times).all(|(c, r)| c > r),
    );
    let cluster = last_cluster.expect("tiles ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
