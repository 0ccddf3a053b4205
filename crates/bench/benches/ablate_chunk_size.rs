//! Ablation — store chunk size (the paper fixes 256 KiB).
//!
//! Two opposing forces: bigger chunks amortize SSD/network latency for
//! sequential streams (STREAM read bandwidth rises), but amplify the
//! read-modify-write traffic of small random writes (Table VII's world).

use bench::{header, JsonReport, Table, SCALE};
use chunkstore::StoreConfig;
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::randwrite::{run_randwrite, RandWriteConfig};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

fn main() {
    header(
        "Ablation: chunk size",
        "§III-D design choice (256 KiB default)",
    );
    let t = Table::new(&[("Chunk", 8), ("TRIAD MB/s", 11), ("randwrite SSD MiB", 18)]);
    let mut report = JsonReport::new("ablate_chunk_size");
    report.config("scale", SCALE);
    let mut seq_bw = Vec::new();
    let mut rw_vol = Vec::new();
    let mut last_cluster = None;
    for chunk_kib in [64u64, 128, 256, 512, 1024] {
        let store_cfg = StoreConfig {
            chunk_size: chunk_kib * 1024,
            ..StoreConfig::default()
        };

        // Caches hold a fixed number of chunks (4 per stream) so the
        // sweep isolates the chunk-size effect from cache-entry pressure.
        let fuse = |streams: u64| FuseConfig {
            cache_bytes: streams * 4 * chunk_kib * 1024,
            ..FuseConfig::default()
        };

        // Sequential: STREAM TRIAD with C on the local store.
        let cfg = JobConfig::local(8, 1, 1);
        let cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            fuse(8),
            store_cfg,
        );
        // 4 GB (scaled) array: larger than any swept cache, so no chunk
        // size can make the whole array resident across iterations.
        let elems = ((4u64 << 30) / SCALE / 8) as usize;
        let scfg =
            StreamConfig::new(elems).place(ArrayPlace::Dram, ArrayPlace::Dram, ArrayPlace::Nvm);
        let s = run_stream(
            &cluster,
            &cfg,
            Calibration::default(),
            &scfg,
            StreamKernel::Triad,
        );

        // Random writes, optimization ON (page write-back), same region.
        let rw_cfg = JobConfig::local(1, 1, 1);
        let rw_cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(SCALE),
            &rw_cfg.benefactor_nodes(),
            fuse(4),
            store_cfg,
        );
        let r = run_randwrite(
            &rw_cluster,
            &rw_cfg,
            &RandWriteConfig {
                region_bytes: (2u64 << 30) / SCALE,
                writes: 2048,
                seed: 3,
            },
            true,
        );
        t.row(&[
            format!("{}K", chunk_kib),
            format!("{:.1}", s.bandwidth_mb_s),
            format!("{:.1}", r.data_to_ssd as f64 / (1 << 20) as f64),
        ]);
        seq_bw.push(s.bandwidth_mb_s);
        rw_vol.push(r.data_to_ssd);
        report.value(&format!("triad_mb_s_chunk_{chunk_kib}k"), s.bandwidth_mb_s);
        report.counter(
            &format!("randwrite_ssd_bytes_chunk_{chunk_kib}k"),
            r.data_to_ssd,
        );
        bench::store_health(&format!("chunk {}K seq", chunk_kib), &cluster);
        bench::store_health(&format!("chunk {}K rw", chunk_kib), &rw_cluster);
        assert!(s.verified && r.verified);
        report.ran(&cluster).ran(&rw_cluster);
        last_cluster = Some(cluster);
    }
    println!();
    report.check(
        "sequential bandwidth rises with chunk size (latency amortization)",
        seq_bw.windows(2).all(|w| w[1] >= w[0] * 0.95) && seq_bw[4] > seq_bw[0],
    );
    report.check(
        "random-write SSD volume is flat with page write-back (the optimization decouples it)",
        rw_vol.iter().max().unwrap() - rw_vol.iter().min().unwrap() < rw_vol[0] / 2,
    );
    let cluster = last_cluster.expect("sweep ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
