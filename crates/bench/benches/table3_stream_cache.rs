//! Table III — STREAM bandwidth with array C on the local SSD, with and
//! without NVMalloc.
//!
//! "Without NVMalloc" is raw `mmap` of a file on the node-local SSD:
//! sequential page faults served with the kernel's 128 KiB readahead but
//! no chunk cache. The paper's point: NVMalloc's FUSE-level 256 KiB
//! read-ahead caching makes it *faster* than the raw path for sequential
//! access, despite the extra layer.

use bench::{header, stream_fuse, JsonReport, Table, SCALE};
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use workloads::stream::{run_stream, run_stream_raw_ssd, ArrayPlace, StreamConfig, StreamKernel};

fn main() {
    header(
        "Table III: STREAM with array C on local SSD, w/ and w/o NVMalloc",
        "Table III",
    );
    let elems = ((2u64 << 30) / SCALE / 8) as usize;
    let scfg = StreamConfig::new(elems).place(ArrayPlace::Dram, ArrayPlace::Dram, ArrayPlace::Nvm);
    let calib = Calibration::default();

    let t = Table::new(&[
        ("Kernel", 8),
        ("w/ NVMalloc MB/s", 17),
        ("w/o NVMalloc MB/s", 18),
        ("gain", 7),
        ("verified", 9),
    ]);
    let mut report = JsonReport::new("table3_stream_cache");
    report.config("scale", SCALE).config("elems", elems);
    let mut all_gain = true;
    let mut last_cluster = None;
    for kernel in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        let cfg = JobConfig::local(8, 1, 1);
        let cluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
        );
        let with = run_stream(&cluster, &cfg, calib, &scfg, kernel);

        let raw_cfg = JobConfig::dram_only(8, 1);
        let raw_cluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &raw_cfg.benefactor_nodes(),
            stream_fuse(SCALE, 8),
        );
        let raw = run_stream_raw_ssd(&raw_cluster, &raw_cfg, calib, &scfg, kernel);

        let gain = with.bandwidth_mb_s / raw.bandwidth_mb_s;
        all_gain &= gain > 1.0;
        t.row(&[
            kernel.name().to_string(),
            format!("{:.1}", with.bandwidth_mb_s),
            format!("{:.1}", raw.bandwidth_mb_s),
            format!("{gain:.2}x"),
            format!("{}", with.verified && raw.verified),
        ]);
        bench::store_health(kernel.name(), &cluster);
        report
            .value(&format!("with_mb_s_{}", kernel.name()), with.bandwidth_mb_s)
            .value(&format!("raw_mb_s_{}", kernel.name()), raw.bandwidth_mb_s)
            .host_events(with.handoffs + raw.handoffs)
            .ran(&cluster)
            .ran(&raw_cluster);
        last_cluster = Some(cluster);
    }
    println!();
    report.check(
        "NVMalloc's read-ahead caching beats raw mmap on every kernel (paper Table III)",
        all_gain,
    );
    let cluster = last_cluster.expect("kernels ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
